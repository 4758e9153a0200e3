"""Discrete convolution products over lattice sub-domains.

One windowed kernel ``conv_general`` covers the causal (Faltung), Weyl,
bilateral and general domain-pair products; ``conv_axes`` convolves along a
chosen subset of axes only, the kernel embedded with length-1 pass-through
axes, through the same body.  Output windows are always caller-supplied:
infinite result domains are never materialized.  When a factor carries a decay
envelope, truncation of the unstored tail is bounded entrywise in closed
geometric form and reported as a ledger, its runs summed by one call of the
rounded-up ``ztransform._log_run``.  ``_stencil(m)`` holds the coefficients
of (z - 1)^m, the m-th forward difference's correlation kernel.
"""

from __future__ import annotations

import functools
import itertools
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
    sort_axes,
    value_norms,
)
from .ztransform import _exp, _log_run, eval_forward

DEFAULT_TOL = 1e-12
TOL_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Axis profiles for tail bounds
# ---------------------------------------------------------------------------


@dataclass
class _AxisProfile:
    lo: float  # admissible interval along the axis, infinite where open
    hi: float
    s_lo: float  # stored interval, within the admissible one
    s_hi: float
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
        lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
        if env is None:
            lo, hi = max(lo, s_lo), min(hi, s_hi)
        rates = env.sides[ax] if env is not None else (1.0, 1.0)
        profs.append(_AxisProfile(lo, hi, max(lo, s_lo), min(hi, s_hi), *rates))
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

    Per axis (``ends``): the envelope summed over the stored box (l in
    supp(b), k - l in supp(a)) within the admissible l-interval (l in dom_b,
    k - l in dom_a) (S_i) and over the unstored rows below and above it (T_i).
    The ledger is Ma Mb sum_i S_1...S_{i-1} T_i F_{i+1}...F_n with F = S + T:
    the unstored terms summed directly, never a difference of full and
    stored sums, which cancels once the tail is below rounding of the full
    sum.  A row that the profiles' scalars show empty at every k is skipped,
    and with none unstored left the ledger is 0.  The rest are split at l = k
    and l = 0 where the profiles admit both sides, into geometric runs over
    the window: one ``_log_run`` call for all axes.  An axis whose sum
    diverges or leaves the float range makes the entry infinite, unless
    another axis admits no l at all, which makes the entry exactly 0.
    """
    Ma, pa = _profiles(a, a_axes)
    Mb, pb = _profiles(b, b_axes)
    shape, live = tuple(len(ks) for ks in ranges), []

    def ends(p, q, k, M=np.maximum, m=np.minimum):  # lo, hi, lo_s, hi_s at k
        return M(k - p.hi, q.lo), m(k - p.lo, q.hi), M(k - p.s_hi, q.s_lo), m(k - p.s_lo, q.s_hi)
    for p, q, ks in zip(pa, pb, ranges):
        # lo_s - lo and hi - hi_s are monotone in k: a row empty at both ends is empty
        e = [ends(p, q, float(k), max, min) for k in (ks[0], ks[-1])]
        live.append((max(x[2] - x[0] for x in e) >= 1, max(x[1] - x[3] for x in e) >= 1))
    if Ma == 0.0 or Mb == 0.0 or not any(below or above for below, above in live):
        return np.zeros(shape)
    W, n, inf = max(shape), len(shape), math.inf
    runs, axes = [], []  # per run: its ends, log ratio, log scale, k and sums slot
    for i, (p, q, ks, (below, above)) in enumerate(zip(pa, pb, ranges, live)):
        k = np.arange(ks.start, ks.start + W, dtype=float)  # the window's k, padded to W
        lo, hi, lo_s, hi_s = ends(p, q, k)
        axes.append((lo, hi))
        rows = [(lo_s, hi_s)] + ([(lo, np.minimum(hi, lo_s - 1.0))] if below else [])
        rows += [(np.maximum(lo_s, hi_s + 1.0), hi)] if above else []
        # b_a(k - l) b_b(l) = ra^k (rb / ra)^l: ra = r_pos for l <= k and r_neg
        # for l > k, rb = r_neg for l < 0 and r_pos for l >= 0
        halves = [(p.r_pos, -inf, k)] * (p.hi >= 0) + [(p.r_neg, k + 1.0, inf)] * (p.lo < 0)
        sides = [(q.r_neg, -inf, -1.0)] * (q.lo < 0) + [(q.r_pos, 0.0, inf)] * (q.hi >= 0)
        for row, (r0, r1) in enumerate(rows):
            at = (n + i if row else i) * W  # the row sums into T_i, else S_i
            for (ra, h0, h1), (rb, c0, c1) in itertools.product(halves, sides):
                e0, e1 = r0, r1
                for x0, x1 in ((h0, h1),) * (len(halves) > 1) + ((c0, c1),) * (len(sides) > 1):
                    e0, e1 = np.maximum(e0, x0), np.minimum(e1, x1)
                runs.append((e0, e1, math.log(rb / ra), math.log(ra), k, at))
    e0, e1, lg, sl, k, at = zip(*runs)
    lg, sl, at = (np.array(x)[:, None] for x in (lg, sl, at))
    runs = _exp(_log_run(np.array(e0), np.array(e1), lg, sl * np.array(k)))
    sums = np.bincount((at + np.arange(W)).ravel(), runs.ravel(), 2 * n * W).reshape(2 * n, W)
    divergent = np.isinf(sums)  # S per axis, then T per axis
    if some := divergent.any():
        sums[divergent] = 0.0
    for i, K in enumerate(shape):
        s_i, t_i = sums[i, :K], sums[n + i, :K]
        tail = t_i if i == 0 else tail[..., None] * (s_i + t_i) + stored[..., None] * t_i
        stored = s_i if i == 0 else stored[..., None] * s_i
    tail = Ma * Mb * tail
    if some:
        any_of = functools.partial(functools.reduce, np.logical_or.outer)
        div = any_of(divergent[i, :K] | divergent[n + i, :K] for i, K in enumerate(shape))
        tail[div & ~any_of(lo[:K] > hi[:K] for (lo, hi), K in zip(axes, shape))] = inf
    return tail


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


def _diff(V):
    """V(p) - V(p - 1) along the first axis, with V zero past both ends."""
    W = np.empty((len(V) + 1,) + V.shape[1:], dtype=V.dtype)
    W[0], W[-1] = V[0], -V[-1]
    np.subtract(V[1:], V[:-1], out=W[1:-1])
    return W


def _stencil(m: int) -> np.ndarray:
    """The coefficients (-1)^p C(m, p) of z^(m - p) in (z - 1)^m, p = 0..m: m
    first differences of the unit, exact while C(m, p) < 2^53 (m <= 56)."""
    s = np.ones(1)
    for _ in range(m):
        s = _diff(s)
    return s


def _check_finite(out, window: Box) -> None:
    """Raise at the first k (row-major) whose value left the float range."""
    if not np.isfinite(out).all():
        k = tuple(lo + int(i) for lo, i in zip(window.lo, np.argwhere(~np.isfinite(out))[0]))
        raise DivergentConvolution(f"value at k={k} leaves the float range")


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
    domain = result_domain(a.domain, b.domain)
    return _product(a, b, range(a.dim), window, domain, tol, enforce, return_ledger)


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

    a is l-dimensional (l = len(axes)) of any value kind; axes listed out of
    order are sorted and a's axes permuted to match; the empty subset returns
    b unchanged.  The result lies on the full lattice.
    """
    if len(axes) == 0:
        return (b, np.zeros(b.support.shape)) if return_ledger else b
    a, axes = sort_axes(a, axes, b.dim)
    if window.dim != b.dim:
        raise DimensionMismatch("window dimension mismatch")
    a_axes = [axes.index(j) if j in axes else None for j in range(1, b.dim + 1)]
    return _product(a, b, a_axes, window, FullLattice(b.dim), tol, enforce, return_ledger)


def _product(a, b, a_axes, window: Box, domain, tol, enforce, return_ledger):
    """The body of both products: a's axis ``a_axes[i]`` pairs with b's axis i,
    and a ``None`` is a length-1 pass-through axis of a at 0."""
    out_kind = b.value_kind if a.value_kind == "scalar" else (
        b.value_kind if b.value_kind != "scalar" else a.value_kind
    )
    out_m = b.m if b.m is not None else a.m
    shape = tuple(1 if q is None else a.support.shape[q] for q in a_axes)
    a_lo = tuple(0 if q is None else a.support.lo[q] for q in a_axes)
    # stored entries outside a table's domain are zero, so the stored boxes
    # are the whole summation range
    out = _correlate(
        a.values.reshape(shape + a.vshape), a_lo, b.values, b.support.lo, window,
        len(a.vshape), len(b.vshape),
    )
    _check_finite(out, window)
    ledger = None
    if (enforce or return_ledger) and (a.envelope is not None or b.envelope is not None):
        ranges = [range(lo, hi + 1) for lo, hi in zip(window.lo, window.hi)]
        ledger = _tail_ledger(a, b, a_axes, range(b.dim), ranges)
        if enforce:
            _check_tail(out, ledger, window, tol, out.ndim - b.dim)
    table = SequenceTable(domain, window, out, out_kind, out_m)
    return (table, ledger) if return_ledger else table


# ---------------------------------------------------------------------------
# Transform-side checks
# ---------------------------------------------------------------------------


def _value_product(x, y, x_vdim: int, y_vdim: int):
    """x (x) y for values over the same leading axes, as ``_correlate``
    multiplies them: matrix @ (vector or matrix), else elementwise with value
    axes right-aligned."""
    x_v, y_v, out_v = _subscripts(0, x_vdim, y_vdim)[1].replace("->", ",").split(",")
    return np.einsum(f"...{x_v},...{y_v}->...{out_v}", x, y)


def _at_points(t: SequenceTable, z: np.ndarray) -> np.ndarray:
    """F_t at each row of z (points x t.dim), stacked: one evaluation on the
    open mesh of the rows' coordinates (points^dim nodes), then its diagonal."""
    P, n = z.shape
    mesh = tuple(z[:, i].reshape((1,) * i + (P,) + (1,) * (n - 1 - i)) for i in range(n))
    return np.asarray(eval_forward(t, mesh))[(np.arange(P),) * n]


def _deviation(prod: SequenceTable, z: np.ndarray, rhs: np.ndarray) -> dict:
    """Max relative deviation of F_prod from ``rhs`` over the rows of z."""
    vd = rhs.ndim - 1
    dev = value_norms(_at_points(prod, z) - rhs, vd) / np.maximum(value_norms(rhs, vd), 1e-30)
    return {"max_rel_deviation": float(np.max(dev, initial=0.0)), "points": len(z)}


def conv_theorem_check(
    a: SequenceTable,
    b: SequenceTable,
    z_points: Sequence[Sequence[complex]],
    axes: Sequence[int] | None = None,
) -> dict:
    """Max relative deviation of F_{a*b}(z) against F_a(z) (x) F_b(z) at the
    points, (x) the value product of ``_correlate``.

    In axes mode F_a is evaluated at the axis sub-tuple of z.  Both factors
    must be finitely supported so the product table is exact on the Minkowski
    window.
    """
    if a.envelope is not None or b.envelope is not None:
        raise DivergentConvolution("theorem check requires finite-support factors")
    ax = [j - 1 for j in (range(1, b.dim + 1) if axes is None else axes)]
    lo, hi = [0] * b.dim, [0] * b.dim  # a's support on b's lattice
    for j, a_lo, a_hi in zip(ax, a.support.lo, a.support.hi):
        lo[j], hi[j] = a_lo, a_hi
    window = minkowski_sum(Box(tuple(lo), tuple(hi)), b.support)
    prod = conv_general(a, b, window) if axes is None else conv_axes(a, b, axes, window)
    z = np.array(z_points, dtype=complex).reshape(len(z_points), b.dim)
    fa, fb = _at_points(a, z[:, ax]), _at_points(b, z)
    return _deviation(prod, z, _value_product(fa, fb, len(a.vshape), len(b.vshape)))
