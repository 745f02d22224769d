"""Shared numeric test utilities."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from scpc import diffcore as dc


def numeric_grad(f: Callable[[Sequence[np.ndarray]], float], arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of a scalar function, one coordinate at a time.

    Arrays must be float64; they are perturbed in place and restored.
    """
    grads = []
    for a in arrays:
        assert a.dtype == np.float64
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm relative error between gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(np.abs(n).max(initial=0.0), 1e-6)
    return float(np.abs(a - n).max(initial=0.0) / denom)


def weighted_mean(out: np.ndarray, w) -> tuple[np.ndarray, Callable]:
    """mean(out * w) over every entry, for a constant ``w`` of out's shape or
    a scalar, and its vjp to ``out``: the reduction the gradient checks and
    the tape tests backpropagate from.

    The product takes numpy's promoted dtype and the mean accumulates in
    float64.  The vjp holds only ``w``, so a memory test that ends in it
    measures the op under test.
    """
    w = np.asarray(w)
    prod = out * w
    shape, dtype, n = prod.shape, prod.dtype, prod.size

    def vjp(g):
        return (np.full(shape, g / n, dtype) * w,)

    return np.asarray(prod.mean(dtype=np.float64).astype(dtype)), vjp


def mean_grad(out: np.ndarray, w) -> np.ndarray:
    """d mean(out * w) / d out: the upstream gradient an op check hands to
    the op's vjp, as ``weighted_mean``'s vjp gives it at a unit loss gradient."""
    loss, vjp = weighted_mean(out, w)
    return vjp(np.ones_like(loss))[0]


def only_stage(tape: dc.Tape):
    """The (names read, name written, vjp) of the one stage on ``tape``."""
    (stage,) = tape._stages
    return stage
