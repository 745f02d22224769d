"""Shared numeric test utilities."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from scpc import boundary
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


def weighted_mean(out: dc.Tensor, w) -> dc.Tensor:
    """mean(out * w) over every entry, for a constant ``w`` of out's shape or
    a scalar: one tape node, the reduction the gradient checks and the
    contract tests backpropagate from.

    The product takes numpy's promoted dtype and the mean accumulates in
    float64.  The node holds only ``w``, so a memory test that ends in it
    measures the op under test.
    """
    w = np.asarray(w)
    prod = out.data * w
    shape, dtype, n = prod.shape, prod.dtype, prod.size

    def vjp(g):
        return (np.full(shape, g / n, dtype) * w,)

    return out.tape._record((out,), np.asarray(prod.mean(dtype=np.float64).astype(dtype)), vjp)


def junction_cosine(x: dc.Tensor) -> dc.Tensor:
    """The boundary op's first stage alone: the cosine of each row of ``x``
    with the next, recorded as one node over (x, x) as the op records its
    frames."""
    sim, vjp = boundary._junction_cosine(x.data)
    return x.tape._record((x, x), sim, vjp)
