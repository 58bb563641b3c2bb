"""Exact one-dimensional reflection map (running-minimum form), a streaming
variant, the componentwise box projection used by the time stepper, and
local-time bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReflectionDomain",
    "ReflectedPath",
    "reflect_path_1d",
    "ReflectionAccumulator1D",
    "reflect_stream_1d",
    "minimal_push_oracle",
    "reflect_box",
    "total_variation",
]

TOL_BOUNDARY = 1e-12


@dataclass(frozen=True)
class ReflectionDomain:
    """Axis-aligned product domain: per-coordinate [lo, hi] with hi possibly
    +inf (half-line) and lo possibly -inf (coordinate not reflected)."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"need lo < hi per coordinate, got [{lo}, {hi}]")

    @classmethod
    def half_line(cls, lo: float = 0.0, dim: int = 1) -> "ReflectionDomain":
        return cls(tuple((float(lo), math.inf) for _ in range(dim)))

    @classmethod
    def box(cls, bounds) -> "ReflectionDomain":
        return cls(tuple((float(lo), float(hi)) for lo, hi in bounds))

    @classmethod
    def unreflected(cls, dim: int = 1) -> "ReflectionDomain":
        return cls(tuple((-math.inf, math.inf) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )


@dataclass(frozen=True)
class ReflectedPath:
    """Reflected path with its local-time decomposition."""

    xi: np.ndarray
    phi: np.ndarray
    phi_tv: np.ndarray


def reflect_path_1d(w, lo: float = 0.0) -> ReflectedPath:
    """Exact lower reflection of a scalar path.

    phi(t) = -min(0, min_{s<=t} (w(s) - lo)) and xi = w + phi, so xi >= lo at
    every grid point, phi(0) = 0 and phi is nondecreasing.
    """
    xi, phi = _reflect_scan(w, lo)
    return ReflectedPath(xi=xi, phi=phi, phi_tv=total_variation(phi))


def _reflect_scan(w, lo: float):
    """Running-minimum form of the reflection map: returns (xi, phi) of a
    nonempty 1d path ``w`` that starts at or above ``lo``."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty 1d path")
    if w[0] < lo:
        raise ValueError(f"initial point {w[0]} lies below the boundary {lo}")
    phi = np.maximum(lo - np.minimum.accumulate(w), 0.0)
    return w + phi, phi


class ReflectionAccumulator1D:
    """Streaming form of :func:`reflect_path_1d`: feed points one at a time.

    Outputs are exactly (bitwise) the batch outputs on the same prefix.
    """

    def __init__(self, w0: float, lo: float = 0.0):
        if w0 < lo:
            raise ValueError(f"initial point {w0} lies below the boundary {lo}")
        self.lo = lo
        self.running_min = w0
        self.phi = max(lo - w0, 0.0)

    def update(self, next_w: float) -> tuple[float, float]:
        """Advance by one sample; returns (xi, phi) at the new point."""
        if next_w < self.running_min:
            self.running_min = next_w
        self.phi = max(self.lo - self.running_min, 0.0)
        return next_w + self.phi, self.phi


def reflect_stream_1d(w, lo: float = 0.0):
    """Whole-array scan of the running minimum: returns (xi, phi)."""
    return _reflect_scan(w, lo)


def minimal_push_oracle(w, lo: float = 0.0) -> np.ndarray:
    """Minimal nondecreasing push keeping w + phi >= lo.

    Built as the running maximum of the deficit lo - w, independently of the
    running-minimum formula; used to cross-check it.
    """
    w = np.ascontiguousarray(w, dtype=float)
    return np.maximum(np.maximum.accumulate(lo - w), 0.0)


def reflect_box(proposal, domain: ReflectionDomain):
    """Per-step componentwise projection into the domain.

    Returns (reflected point, lower-face increments, upper-face increments).
    Works on a single point (d,) or a batch (m, d).
    """
    p = np.asarray(proposal, dtype=float)
    lo = domain.lower
    hi = domain.upper
    lower_inc = np.where(np.isfinite(lo), np.maximum(lo - p, 0.0), 0.0)
    upper_inc = np.where(np.isfinite(hi), np.maximum(p - hi, 0.0), 0.0)
    return p + lower_inc - upper_inc, lower_inc, upper_inc


def total_variation(phi) -> np.ndarray:
    """Running total variation |phi|_t on the grid (sum of |increments|)."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros_like(phi)
    np.cumsum(np.abs(np.diff(phi, axis=0)), axis=0, out=out[1:])
    return out
