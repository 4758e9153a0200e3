"""Discrete convolution products over lattice sub-domains.

One windowed kernel ``conv_general`` covers the causal (Faltung), Weyl,
bilateral and general domain-pair products; ``conv_axes`` convolves along a
chosen subset of axes only.  Output windows are always caller-supplied:
infinite result domains are never materialized.  When a factor carries a decay
envelope, truncation of the unstored tail is bounded entrywise in closed
geometric form and reported as a ledger.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DivergentConvolution
from .lattice import (
    Box,
    FullLattice,
    LatticeDomain,
    SequenceTable,
    axis_interval,
    minkowski_sum,
    value_norm,
    value_norms,
)
from .ztransform import _envelope_sum, eval_forward

DEFAULT_TOL = 1e-12
TOL_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Axis profiles for tail bounds
# ---------------------------------------------------------------------------


@dataclass
class _AxisProfile:
    lo: int | None  # admissible interval along the axis
    hi: int | None
    s_lo: int  # stored interval
    s_hi: int
    r_neg: float  # envelope factor r_neg^k for k < 0
    r_pos: float  # envelope factor r_pos^k for k >= 0


_UNIT = _AxisProfile(0, 0, 0, 0, 1.0, 1.0)  # the unit kernel: 1 at 0, nothing else


def _profiles(f: SequenceTable, axes: Sequence[int | None]) -> tuple[float, list[_AxisProfile]]:
    """Global constant and per-axis envelope profiles of a table.

    Without an envelope, the table is exactly zero outside its support, so the
    admissible interval clips to the support and the bound constant is the
    maximum stored norm.  A ``None`` axis is the unit kernel.
    """
    env = f.envelope
    M = env.M if env is not None else (float(np.max(f.norms())) if f.values.size else 0.0)
    profs = []
    for ax in axes:
        if ax is None:
            profs.append(_UNIT)
            continue
        lo, hi = axis_interval(f.domain, ax)
        s_lo, s_hi = f.support.lo[ax], f.support.hi[ax]
        r = env.rates[ax] if env is not None else 1.0
        if env is None:
            lo = s_lo if lo is None else max(lo, s_lo)
            hi = s_hi if hi is None else min(hi, s_hi)
        profs.append(_AxisProfile(lo, hi, s_lo, s_hi, *(r if isinstance(r, tuple) else (r, r))))
    return M, profs


def _tail_ledger(
    a: SequenceTable,
    b: SequenceTable,
    a_axes: Sequence[int | None],
    b_axes: Sequence[int],
    ranges: Sequence[range],
) -> np.ndarray:
    """Bound the convolution mass outside the stored summation box at every k
    of the window ``ranges`` (one range per axis of ``b_axes``; a ``None`` in
    ``a_axes`` passes b's axis through, as a convolution with the unit kernel).

    Per axis: the envelope summed over the stored box within the admissible
    l-interval (S_i) and over the unstored rest below and above it (T_i).
    The ledger is Ma Mb sum_i S_1...S_{i-1} T_i F_{i+1}...F_n with F = S + T:
    the unstored terms summed directly, never a difference of full and
    stored sums, which cancels once the tail is below rounding of the full
    sum.  It is built as outer products of one 1-D array per axis.  The axes
    are laid side by side, so the intervals of all axes are one array each
    and the envelope sums of all axes and of both halves of the summation line
    are one ``_envelope_sum`` call.  An axis whose sum diverges or leaves the
    float range makes the entry infinite, unless another axis admits no l at
    all, which makes the entry exactly 0.
    """
    Ma, pa = _profiles(a, a_axes)
    Mb, pb = _profiles(b, b_axes)
    shape = tuple(len(ks) for ks in ranges)
    if Ma == 0.0 or Mb == 0.0:
        return np.zeros(shape)
    inf = math.inf
    k = np.concatenate([np.arange(ks.start, ks.stop, dtype=float) for ks in ranges])
    # each profile value repeated over its axis; an open end is an infinite one
    p_lo, p_hi, ps_lo, ps_hi, p_neg, p_pos, log_neg, log_pos = np.repeat([[
        -inf if p.lo is None else p.lo, inf if p.hi is None else p.hi, p.s_lo, p.s_hi,
        p.r_neg, p.r_pos, math.log(p.r_neg), math.log(p.r_pos),
    ] for p in pa], shape, axis=0).T
    q_lo, q_hi, qs_lo, qs_hi, q_neg, q_pos = np.repeat([[
        -inf if q.lo is None else q.lo, inf if q.hi is None else q.hi, q.s_lo, q.s_hi,
        q.r_neg, q.r_pos,
    ] for q in pb], shape, axis=0).T
    # the admissible l-interval (l in dom_b, k - l in dom_a) and the stored
    # box (l in supp(b), k - l in supp(a)) within it
    lo, hi = np.maximum(q_lo, k - p_hi), np.minimum(q_hi, k - p_lo)
    lo_s = np.maximum(np.maximum(qs_lo, k - ps_hi), lo)
    hi_s = np.minimum(np.minimum(qs_hi, k - ps_lo), hi)
    # rows: the stored interval, then the unstored ones below and above it
    ends_lo = np.stack([lo_s, lo, np.maximum(lo_s, hi_s + 1.0)])
    ends_hi = np.stack([hi_s, np.minimum(hi, lo_s - 1.0), hi])
    # sum over l of b_a(k - l) b_b(l), split at l = k:
    # b_a(k - l) = ra^k ra^-l with ra = r_pos for l <= k, r_neg for l > k
    ra = np.stack([p_pos, p_neg])[:, None]  # (half, 1, k)
    sums = _envelope_sum(
        q_neg / ra, q_pos / ra,
        np.stack([ends_lo, np.maximum(ends_lo, k + 1.0)]),
        np.stack([np.minimum(ends_hi, k), ends_hi]),
        k * np.stack([log_pos, log_neg])[:, None],
    )
    cut = np.cumsum(shape)[:-1]
    tail = np.zeros(())
    stored = np.ones(())
    divergent = np.zeros((), dtype=bool)
    empty = np.zeros((), dtype=bool)
    per_axis = zip(np.split(sums[0] + sums[1], cut, axis=-1), np.split(lo > hi, cut))
    for (s_i, t_below, t_above), e in per_axis:
        t_i = t_below + t_above
        inf_i = ~np.isfinite(s_i + t_i)
        s_i[inf_i] = t_i[inf_i] = 0.0
        tail = np.multiply.outer(tail, s_i + t_i) + np.multiply.outer(stored, t_i)
        stored = np.multiply.outer(stored, s_i)
        divergent = np.logical_or.outer(divergent, inf_i)
        empty = np.logical_or.outer(empty, e)
    return np.where(divergent & ~empty, math.inf, Ma * Mb * tail)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def result_domain(d_a: LatticeDomain, d_b: LatticeDomain) -> LatticeDomain:
    """Domain of a product of sequences on d_a and d_b; the full lattice when
    the Minkowski sum is not representable."""
    try:
        return minkowski_sum(d_a, d_b)
    except Exception:
        return FullLattice(d_b.dim)


@functools.lru_cache(maxsize=None)
def _subscripts(n: int, a_vdim: int, b_vdim: int) -> tuple[str, str]:
    """``_correlate``'s einsum subscripts, and the same with a and b swapped."""
    w, q, v = (string.ascii_letters[i:j] for i, j in ((0, n), (n, 2 * n), (2 * n, 2 * n + 3)))
    if a_vdim == 2 and b_vdim >= 1:
        a_v, b_v, out_v = v[:2], v[1 : b_vdim + 1], v[0] + v[2 : b_vdim + 1]
    else:
        out_v = v[: max(a_vdim, b_vdim)]
        a_v, b_v = out_v[len(out_v) - a_vdim :], out_v[len(out_v) - b_vdim :]
    return f"{b_v}{w}{q},{q}{a_v}->{w}{out_v}", f"{a_v}{w}{q},{q}{b_v}->{w}{out_v}"


def _correlate(a, a_lo, b, b_lo, window: Box, a_vdim: int = 0, b_vdim: int = 0):
    """out[k] = sum_s a[s] (x) b[k - s] for every k of the window.

    ``a`` and ``b`` are dense arrays over boxes starting at ``a_lo``/``b_lo``:
    lattice axes first, then ``a_vdim``/``b_vdim`` value axes.  (x) is matrix
    @ (vector or matrix), else elementwise with value axes right-aligned (a
    vector times a matrix scales its columns).  Points outside either box add
    nothing, so the smaller box is first clipped per axis to the points that
    meet the larger one from some k of the window.  The factor with the larger
    box is copied, zero-padded to (window + smaller box - 1) points per axis,
    value axes first.  One ``np.einsum`` contracts a values x window x box
    strided view of the copy with the flipped smaller factor: O(window + box)
    memory, no BLAS, einsum's summation order.
    """
    n, W = window.dim, window.shape
    dtype = np.promote_types(a.dtype, b.dtype)
    swap = math.prod(b.shape[:n]) < math.prod(a.shape[:n])
    subscripts = _subscripts(n, a_vdim, b_vdim)[swap]
    a, a_lo, b, b_lo = (b, b_lo, a, a_lo) if swap else (a, a_lo, b, b_lo)
    # per axis, a's points s0 <= s < s1 within [w_lo - b_hi, w_hi - b_lo], the
    # only ones that meet b's box; padded[g] = b[g + c], so that padded[w + q]
    # pairs window index w with point s1 - 1 - q of a; zero where g + c leaves
    # b's box
    cut, G, dst, src = [], [], [], []
    for w0, w1, a0, b0, A, Bl in zip(window.lo, window.hi, a_lo, b_lo, a.shape, b.shape):
        s0 = min(max(w0 - b0 - Bl + 1 - a0, 0), A)
        s1 = max(min(w1 - b0 - a0 + 1, A), s0)
        c, g = w0 - a0 - s1 + 1 - b0, w1 - w0 + s1 - s0
        lo, hi = max(0, -c), max(0, -c, min(g, Bl - c))
        cut.append(slice(s0, s1))
        G.append(g)
        dst.append(slice(lo, hi))
        src.append(slice(lo + c, hi + c))
    a = a[tuple(cut)][(slice(None, None, -1),) * n]
    padded = np.zeros(b.shape[n:] + tuple(G), dtype)
    padded[(Ellipsis, *dst)] = b[tuple(src)].transpose((*range(n, b.ndim), *range(n)))
    strides = padded.strides
    shape = padded.shape[:-n] + W + a.shape[:n]
    view = np.ndarray(shape, dtype, padded, 0, strides[:-n] + strides[-n:] * 2)
    return np.einsum(subscripts, view, a, order="C")


def _check_tail(out, ledger, window: Box, tol: float, value_ndim: int) -> None:
    """Raise at the first k (row-major) whose tail bound exceeds the tolerance."""
    scale = np.maximum(value_norms(out, value_ndim), TOL_FLOOR / max(tol, 1e-300))
    bad = ledger > np.maximum(tol * scale, TOL_FLOOR)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        k = tuple(lo + i for lo, i in zip(window.lo, idx))
        raise DivergentConvolution(f"tail bound {ledger[idx]:.3e} at k={k} exceeds tolerance")


def conv_general(
    a: SequenceTable,
    b: SequenceTable,
    window: Box,
    tol: float = DEFAULT_TOL,
    enforce: bool = True,
    return_ledger: bool = False,
):
    """(a * b)(k) = sum over l in dom(b) with k - l in dom(a) of a(k-l) b(l).

    Computed over the stored supports on the given output window; when an
    envelope is present the per-entry tail bound is checked against ``tol``
    (relative, with an absolute floor) unless ``enforce`` is False; it is
    computed only when checked or returned.
    """
    if a.dim != b.dim or window.dim != a.dim:
        raise DimensionMismatch("convolution dimension mismatch")
    out_kind = b.value_kind if a.value_kind == "scalar" else (
        b.value_kind if b.value_kind != "scalar" else a.value_kind
    )
    out_m = b.m if b.m is not None else a.m
    # stored entries outside a table's domain are zero, so the stored boxes
    # are the whole summation range
    out = _correlate(
        a.values, a.support.lo, b.values, b.support.lo, window, len(a.vshape), len(b.vshape)
    )
    ledger = None
    if (enforce or return_ledger) and (a.envelope is not None or b.envelope is not None):
        axes = tuple(range(a.dim))
        ranges = [range(lo, hi + 1) for lo, hi in zip(window.lo, window.hi)]
        ledger = _tail_ledger(a, b, axes, axes, ranges)
        if enforce:
            _check_tail(out, ledger, window, tol, out.ndim - a.dim)
    table = SequenceTable(result_domain(a.domain, b.domain), window, out, out_kind, out_m)
    return (table, ledger) if return_ledger else table


def conv_axes(
    a: SequenceTable,
    b: SequenceTable,
    axes: Sequence[int],
    window: Box,
    tol: float = DEFAULT_TOL,
    enforce: bool = True,
    return_ledger: bool = False,
):
    """Convolve along the 1-based axis subset only, passing the rest through.

    a is l-dimensional (l = len(axes)); the empty subset returns b unchanged.
    """
    axes = tuple(int(j) for j in axes)
    if len(axes) == 0:
        return (b, np.zeros(b.support.shape)) if return_ledger else b
    if list(axes) != sorted(set(axes)) or axes[0] < 1 or axes[-1] > b.dim:
        raise ValueError(f"axes must be strictly increasing in 1..{b.dim}")
    if a.dim != len(axes):
        raise DimensionMismatch("kernel dimension must equal number of axes")
    if a.value_kind != "scalar":
        raise ValueError("axes-mode kernel must be scalar")
    if window.dim != b.dim:
        raise DimensionMismatch("window dimension mismatch")
    ax0 = tuple(j - 1 for j in axes)
    # embed the kernel in n dimensions with length-1 pass-through axes at 0
    emb_shape = [1] * b.dim
    emb_lo = [0] * b.dim
    for i, j in enumerate(ax0):
        emb_shape[j] = a.support.shape[i]
        emb_lo[j] = a.support.lo[i]
    out = _correlate(
        a.values.reshape(emb_shape), emb_lo, b.values, b.support.lo, window, 0, len(b.vshape)
    )
    ledger = None
    if (enforce or return_ledger) and (a.envelope is not None or b.envelope is not None):
        ranges = [range(lo, hi + 1) for lo, hi in zip(window.lo, window.hi)]
        a_axes = [ax0.index(j) if j in ax0 else None for j in range(b.dim)]
        ledger = _tail_ledger(a, b, a_axes, tuple(range(b.dim)), ranges)
        if enforce:
            _check_tail(out, ledger, window, tol, len(b.vshape))
    table = SequenceTable(FullLattice(b.dim), window, out, b.value_kind, b.m)
    return (table, ledger) if return_ledger else table


# ---------------------------------------------------------------------------
# Transform-side check
# ---------------------------------------------------------------------------


def support_minkowski(a: SequenceTable, b: SequenceTable) -> Box:
    lo = tuple(x + y for x, y in zip(a.support.lo, b.support.lo))
    hi = tuple(x + y for x, y in zip(a.support.hi, b.support.hi))
    return Box(lo, hi)


def conv_theorem_check(
    a: SequenceTable,
    b: SequenceTable,
    z_points: Sequence[Sequence[complex]],
    axes: Sequence[int] | None = None,
) -> dict:
    """Max relative deviation of F_{a*b}(z) against F_a F_b at the points.

    In axes mode F_a is evaluated at the axis sub-tuple of z.  Both factors
    must be finitely supported so the product table is exact on the Minkowski
    window.
    """
    if a.envelope is not None or b.envelope is not None:
        raise DivergentConvolution("theorem check requires finite-support factors")
    if axes is None:
        window = support_minkowski(a, b)
        prod = conv_general(a, b, window)
    else:
        ax0 = tuple(j - 1 for j in axes)
        lo = list(b.support.lo)
        hi = list(b.support.hi)
        for i, j in enumerate(ax0):
            lo[j] += a.support.lo[i]
            hi[j] += a.support.hi[i]
        window = Box(tuple(lo), tuple(hi))
        prod = conv_axes(a, b, axes, window)
    worst = 0.0
    for z in z_points:
        z = tuple(complex(c) for c in z)
        lhs = np.asarray(eval_forward(prod, z))
        if axes is None:
            fa = eval_forward(a, z)
        else:
            fa = eval_forward(a, tuple(z[j - 1] for j in axes))
        rhs = np.asarray(eval_forward(b, z)) * fa
        denom = max(value_norm(rhs), 1e-30)
        worst = max(worst, value_norm(lhs - rhs) / denom)
    return {"max_rel_deviation": worst, "points": len(list(z_points))}
