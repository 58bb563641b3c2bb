"""Exact one-dimensional reflection map (running-minimum form), the
componentwise box projection used by the time stepper, and local-time
bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReflectionDomain",
    "reflect_stream_1d",
    "reflect_box",
    "total_variation",
]

@dataclass(frozen=True)
class ReflectionDomain:
    """Axis-aligned product domain: per-coordinate [lo, hi] with hi possibly
    +inf (half-line) and lo possibly -inf (coordinate not reflected).
    ``bounds`` holds one (lo, hi) pair per coordinate or, for a batch whose
    rows each live in a domain of their own, one such tuple per row.
    ``lower`` and ``upper`` are the bounds as read-only arrays, (d,) or
    (rows, d), F-ordered like the states :func:`reflect_box` gets."""

    bounds: tuple
    lower: np.ndarray = field(init=False, repr=False, compare=False)
    upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = np.array(self.bounds, dtype=float)
        if bounds.ndim not in (2, 3) or bounds.shape[-1] != 2:
            raise ValueError("bounds must be (lo, hi) pairs, per coordinate or per row")
        for lo, hi in bounds.reshape(-1, 2).tolist():
            if not lo < hi:
                raise ValueError(f"need lo < hi per coordinate, got [{lo}, {hi}]")
        for name, side in (("lower", 0), ("upper", 1)):
            a = bounds[..., side].copy(order="F")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def half_line(cls, lo: float = 0.0, dim: int = 1) -> "ReflectionDomain":
        return cls(tuple((float(lo), math.inf) for _ in range(dim)))

    @classmethod
    def unreflected(cls, dim: int = 1) -> "ReflectionDomain":
        return cls(tuple((-math.inf, math.inf) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def reflect_stream_1d(w, lo: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Exact lower reflection of a nonempty, finite 1d path ``w`` that starts
    at or above ``lo``: returns (xi, phi).  ``lo = -inf`` reflects nothing.

    phi(t) = -min(0, min_{s<=t} (w(s) - lo)) and xi = w + phi, so xi >= lo at
    every grid point, phi(0) = 0 and phi is nondecreasing.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty 1d path")
    if not np.isfinite(w).all():
        raise ValueError("path values must be finite")
    if math.isnan(lo):
        raise ValueError("the boundary lo must not be NaN")
    if w[0] < lo:
        raise ValueError(f"initial point {w[0]} lies below the boundary {lo}")
    phi = np.maximum(lo - np.minimum.accumulate(w), 0.0)
    return w + phi, phi


def reflect_box(proposal, lower, upper):
    """Per-step componentwise projection onto the box [lower, upper].

    Returns (reflected point, lower-face increments, upper-face increments).
    The bounds broadcast against the proposal, a single point (d,) or a
    batch (m, d) of any memory layout: (d,) bounds apply to every row, and
    (m, d) bounds row by row.  The result keeps the proposal's layout, given
    (d,) bounds or bounds in that layout.  The proposal must be finite: then
    an infinite face gives max(-inf - p, 0) = max(p - inf, 0) = 0.
    """
    p = np.asarray(proposal, dtype=float)
    lower_inc = np.subtract(lower, p)
    np.maximum(lower_inc, 0.0, out=lower_inc)
    upper_inc = np.subtract(p, upper)
    np.maximum(upper_inc, 0.0, out=upper_inc)
    x = np.add(p, lower_inc)
    np.subtract(x, upper_inc, out=x)
    return x, lower_inc, upper_inc


def total_variation(phi) -> np.ndarray:
    """Running total variation |phi|_t on the grid (sum of |increments|)."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros_like(phi)
    np.cumsum(np.abs(np.diff(phi, axis=0)), axis=0, out=out[1:])
    return out
