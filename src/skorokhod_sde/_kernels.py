"""Hot numeric kernels.

The Hölder pair maximum is numba-compiled when numba is available.  Set
``SKOROKHOD_SDE_NO_NUMBA=1`` to force its numpy fallback.
"""
from __future__ import annotations

import os

import numpy as np


def _want_numba() -> bool:
    flag = os.environ.get("SKOROKHOD_SDE_NO_NUMBA", "0").strip().lower()
    return flag not in {"1", "true", "yes"}


def _holder_max_numba_src(values, times, alpha):
    n = values.shape[0]
    d = values.shape[1]
    best = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            num = 0.0
            for c in range(d):
                num += abs(values[j, c] - values[i, c])
            ratio = num / (times[j] - times[i]) ** alpha
            if ratio > best:
                best = ratio
    return best


def _holder_max_np(values, times, alpha):
    # Row-at-a-time to keep memory linear in the path length.
    n = values.shape[0]
    best = 0.0
    for i in range(n - 1):
        num = np.abs(values[i + 1 :] - values[i]).sum(axis=1)
        ratio = num / (times[i + 1 :] - times[i]) ** alpha
        m = float(ratio.max())
        if m > best:
            best = m
    return best


# ---------------------------------------------------------------------------
# kernel selection

NUMBA_ENABLED = _want_numba()

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a hard dep, but be safe
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    holder_pair_max = njit(cache=True)(_holder_max_numba_src)
else:
    holder_pair_max = _holder_max_np
