"""Cesaro kernels, forward differences, and Weyl-type fractional operators.

The Cesaro kernel of order alpha is the ratio Gamma(k + alpha) / (Gamma(alpha)
k!), generated here by its first-order recurrence so it never overflows.  The
Weyl derivative convolves an N0 kernel against a two-sided sequence; composing
it with the m-th forward difference gives the (kernel, m) fractional
derivative, which for kernel c^(m - alpha), m = ceil(alpha), is the classical
Weyl fractional derivative of order alpha.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .convolution import _at_points, _check_finite, _correlate, _deviation, _stencil
from .convolution import _value_product, conv_general
from .errors import DimensionMismatch, InsufficientWindow
from .lattice import Box, Envelope, SequenceTable, nonneg_orthant

CESARO_ENVELOPE_EPS = 0.05  # envelope rate 1 + eps; any eps > 0 is valid


def cesaro_values(alpha: float, K: int) -> np.ndarray:
    """c^alpha(0..K) as the running product of (k - 1 + alpha) / k, within gamma_{2k}."""
    if alpha < 0 or K < 0:
        raise ValueError(f"need alpha >= 0 and K >= 0, got {alpha}, {K}")
    k = np.arange(1.0, K + 1)
    return np.cumprod(np.concatenate(([1.0], (k - 1 + alpha) / k)))


def cesaro(alpha: float, K: int) -> SequenceTable:
    """Cesaro kernel table on N0 with a geometric envelope (none for c^0, the delta).

    The sequence grows like k^(alpha-1)/Gamma(alpha), so any rate 1 + eps
    dominates eventually; the constant is the exact maximum of
    c^alpha(k) / (1+eps)^k, scanned past the window up to the turning point.
    """
    rate = 1.0 + CESARO_ENVELOPE_EPS
    # ratio c(k)/rate^k peaks near k* = (alpha - 1)/log(rate); scan that far
    scan = cesaro_values(alpha, max(K, int((max(alpha, 1.0)) / math.log(rate)) + 2))
    M = float(np.max(scan / rate ** np.arange(len(scan))))
    return SequenceTable(
        nonneg_orthant(1),
        Box((0,), (K,)),
        scan[: K + 1].astype(complex),
        envelope=Envelope(M, (rate,)) if alpha > 0 else None,
    )


def cesaro_asymptote(alpha: float, k) -> np.ndarray:
    """k^(alpha-1) / Gamma(alpha), the continuous-kernel analogue."""
    k = np.asarray(k, dtype=float)
    return k ** (alpha - 1.0) / math.gamma(alpha)


def _window_box(window) -> Box:
    if isinstance(window, Box):
        return window
    lo, hi = window
    if np.isscalar(lo):
        return Box((int(lo),), (int(hi),))
    return Box(tuple(lo), tuple(hi))


def forward_difference(f: SequenceTable, m: int, window) -> SequenceTable:
    """(Delta^m f)(k) = sum_j (-1)^(m-j) C(m, j) f(k+j), 1-D only: the
    correlation of f with the stencil of (z - 1)^m placed at -m."""
    if f.dim != 1:
        raise DimensionMismatch("forward difference is one-dimensional")
    if m < 0:
        raise ValueError("difference order must be >= 0")
    window = _window_box(window)
    top = window.hi[0] + m
    if top > f.support.hi[0] and f.envelope is not None:
        # beyond the stored window a truncated infinite sequence is unknown,
        # not zero; finite-support tables are exactly zero there
        raise InsufficientWindow(
            f"window needs f up to {top}, stored up to {f.support.hi[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # raised on below
        out = _correlate(_stencil(m), (-m,), f.values, f.support.lo, window, 0, len(f.vshape))
    _check_finite(out, window)
    return SequenceTable(f.domain, window, out, f.value_kind, f.m)


def weyl_derivative(
    a: SequenceTable,
    f: SequenceTable,
    window,
    enforce: bool = True,
    return_ledger: bool = False,
):
    """(D_{W,a} f)(k) = sum_{s>=0} a(s) f(k-s), truncated at the kernel window.

    Delegates to the general product with the (N0, Z) domain pair; the
    envelope tail of the truncation is ledgered per entry.
    """
    if a.dim != 1 or f.dim != 1:
        raise DimensionMismatch("Weyl derivative is one-dimensional")
    return conv_general(a, f, _window_box(window), enforce=enforce, return_ledger=return_ledger)


def weyl_am(
    a: SequenceTable,
    m: int,
    f: SequenceTable,
    window,
    enforce: bool = True,
):
    """(D_{W,a,m} f) = Delta^m (D_{W,a} f) on the window."""
    window = _window_box(window)
    inner = Box((window.lo[0],), (window.hi[0] + m,))
    g = weyl_derivative(a, f, inner, enforce=enforce)
    return forward_difference(g, m, window)


def weyl_fractional(alpha: float, f: SequenceTable, window, kernel_len: int = 256):
    """Weyl fractional derivative of order alpha: kernel c^(m-alpha), m = ceil."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    m = math.ceil(alpha)
    return weyl_am(cesaro(m - alpha, kernel_len), m, f, window)


def weyl_transform_identity_check(
    a: SequenceTable,
    m: int,
    u: SequenceTable,
    z_points: Sequence[complex],
) -> dict:
    """Deviation of F_{D_{W,a,m} u} from (z - 1)^m F_a (x) F_u, (x) the value
    product of the convolution.

    The derivative by the stored kernel is evaluated on all of its support,
    from u's first point - m to u's last + a's last.
    """
    if u.envelope is not None:
        raise ValueError("identity check expects finitely supported u")
    window = Box((u.support.lo[0] - m,), (u.support.hi[0] + a.support.hi[0],))
    d = weyl_am(a, m, u, window, enforce=False)
    z = np.array(z_points, dtype=complex).reshape(-1, 1)
    pref = (z[:, 0] - 1) ** m
    fa_fu = _value_product(_at_points(a, z), _at_points(u, z), len(a.vshape), len(u.vshape))
    return _deviation(d, z, _value_product(pref, fa_fu, 0, fa_fu.ndim - 1))
