"""A guided tour of the differentiable boundary detector on toy latents.

The detector turns a sequence of frame vectors into segments in four moves:

  1. adjacent-frame cosine dissimilarity, min/max normalized per utterance;
  2. two-scale peak scores that keep only isolated local maxima above a
     threshold;
  3. a straight-through indicator whose forward value is the saturated
     tanh(1000 p) but whose gradient follows the gentle tanh(10 p);
  4. tent-weighted segment means: the running boundary count puts each frame
     in at most two segments, and each segment's weights are normalized to
     sum to one, so no frame-by-segment matrix is ever built.

Moves 1-3 are one op on the frame array, ``boundary.boundary_indicator``,
which returns the dissimilarity and the indicator with their vjp; its peak
scores are also a plain numpy function, which the tour calls to show them.
``boundary.detect_segments`` runs moves 1-4 and, given a ``diffcore.Tape``,
records them as stages that training replays backward.

Here the frames are built by hand, three plateaus with small noise, so every
intermediate quantity can be checked against what we planted.
"""

import numpy as np

from scpc import boundary
from scpc import diffcore as dc

rng = np.random.default_rng(0)

# Three plateaus of 8, 6, and 10 frames pointing in three fixed directions.
directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
frames = np.repeat(directions, [8, 6, 10], axis=0) + 0.02 * rng.standard_normal((24, 3))
true_changes = [7, 13]  # junction t sits between frames t and t+1

n = frames.shape[0]
dissim, indicator, _ = boundary.boundary_indicator(frames, thres=0.09)

print("dissimilarity per junction (1 = sharpest change in this utterance):")
print(np.array2string(dissim, precision=2, suppress_small=True))
print(f"planted changes at junctions {true_changes}, "
      f"argmax pair {np.argsort(dissim)[-2:].tolist()}\n")

narrow, wide, final = boundary.peak_scores(dissim, thres=0.09)
print("final peak scores (nonzero only at isolated maxima clearing the threshold):")
print(np.array2string(final, precision=2, suppress_small=True), "\n")

print("straight-through indicator, forward values:", np.round(indicator, 3))
print("equal to hard tanh(1000 p):", bool(np.array_equal(indicator, np.tanh(boundary.HARD_SLOPE * final))), "\n")

cuts = np.flatnonzero(indicator > 0.5) + 1
spans = [(int(s), int(e)) for s, e in zip(np.r_[0, cuts], np.r_[cuts, n])]
print(f"{len(spans)} segments, half-open frame spans: {spans}")

tape = dc.Tape()
means = boundary.detect_segments(frames, 0.09, tape).means
for j, (s, e) in enumerate(spans):
    drift = np.linalg.norm(means[j] - frames[s:e].mean(axis=0))
    print(f"  segment {j}: frames [{s}, {e}), mean within {drift:.1e} of the loop answer")

# The same junctions expressed as times: junction t separates the 10 ms
# frames t and t+1, so it maps to (t + 1) * 10 ms.
peak_junctions = np.flatnonzero(indicator > 0.5)
print("\npredicted boundary times:", [(int(t) + 1) * 0.010 for t in peak_junctions], "s")

# Gradients reach the frames through the soft path even though the forward
# pass used saturated indicators.  Any loss on the means shows it; here
# mean(means * w) for a fixed random w, recorded as the tape's last stage,
# from which backward starts.
w = rng.standard_normal(means.shape)
tape.record(("means",), "loss", lambda g: (g * w / w.size,))
grads = tape.backward((means * w).mean())
print("gradient flows to every frame:", bool(np.all(np.any(grads["frames"] != 0, axis=1))))
