"""Operator pencils, Volterra symbols, and Green-kernel solvers over C^m.

A constant-coefficient partial difference equation sum_j A_j u(k+j) = C f(k)
has the matrix symbol P(z) = sum_j z^j A_j; its Green kernel is the inverse
transform of P(z)^{-1} C and convolving it with the data yields a solution.
Volterra and Weyl-fractional problems carry structured symbols built from
kernel transforms.  A Symbol holds its operator once, in convolution form:
each summand is a block (t, lo, V), so that L u = sum over blocks of the
correlation of A V with u from lo and M(z) = sum A V(p) z^{-lo-p}.

``green_function`` builds a kernel from three parts.  The operator: on a
window with lo >= 0, z^{-j*} M(z) = sum_k B_k z^{-k} over N0^n on the box
0..K, K = max(window.hi, j*), j* the largest shift + order over the blocks,
each block's A V placed at lo + j*; with R^{-k}, the rounding of forming B and
the unstored kernel coefficients.  It is None for a kernel off N0^n, j* < 0
or a kernel tail that diverges at R.  A producer of Hs, M(z)^{-1}'s
coefficients, on the box: the series H(k) = -B_0^{-1} sum_{0 != j <= k} B_j
H(k - j), Hs(k) = H(k - j*), when ``grid`` is None, a level of points at a
time in n-D; in 1-D, after the first b ~ sqrt(3K) coefficients, a block of b
at a time (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985),
handing over the rows of B Hs it forms.  Else the contour samples M(z)^{-1}
on the box (``grid`` where it covers the box), and Hs is zeroed off j* +
N0^n, where the exact kernel vanishes.  One certificate: r = B Hs -
delta_{j*}, one correlation unless handed over.  If q = ||r||_w < 1, w(k) =
R^{-(k - j*)} over N0^n, with r on the box plus the rounding of measuring it
(Higham's gamma_n |B| * |Hs|) and of forming B, the unstored coefficients
and the rows past the box, a Neumann series shows M invertible on and
outside the polycircle (Rump, Acta Numerica 19, 2010); ||M^{-1}||_w <=
||Hs||_w / (1 - q) bounds ``contour_max`` and the envelope, and
``min_rcond`` = (1 - q) / (||B||_w ||Hs||_w) must pass RCOND_MIN.  An
entry's ledger is ||Hs||_1 ||r||_1 / (1 - ||r||_1) on its box 0..k, r on
that box alone (Frobenius norms), and G = Hs C.  A contour kernel it refuses
keeps its values, with ledger inf.  Any other kernel is the contour's on the
window, M(z)^{-1} C behind a reciprocal-condition gate, with a fitted
envelope's aliasing and the truncated transform tails as a surrogate ledger.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .convolution import _check_finite, _correlate, _diff, _stencil, conv_general
from .errors import (
    DimensionMismatch,
    EvaluatorFailure,
    InitialConditionViolated,
    InsufficientWindow,
    NoEnvelope,
    PointOutsideRegion,
    SingularSymbol,
    ZeroCoordinate,
)
from .lattice import (
    Box,
    Envelope,
    FullLattice,
    SequenceTable,
    _sv_extremes,
    axis_interval,
    nonneg_orthant,
    sort_axes,
    value_norm,
    value_norms,
)
from .ztransform import (
    InversionResult,
    Outside,
    PolyAnnulus,
    TransformEvaluator,
    _aliasing_bounds,
    _check_powers,
    _mesh,
    _power_sum,
    forward_tail_bound,
    invert_contour,
)

RCOND_MIN = 1e-12


# ---------------------------------------------------------------------------
# Problem symbols
# ---------------------------------------------------------------------------


@dataclass
class Term:
    """One summand A (Delta^{order} (a * u))(k + shift) of an equation.

    The kernel acts on the 1-based axis subset ``axes`` (None: all axes); its
    symbol contribution is z^shift (z - 1)^order F_a(z_axes) A.  Without a
    kernel the summand is A u(k + shift), a pencil term z^shift A.  Axes
    listed out of order are sorted, and the kernel's axes permuted to match,
    so every reader of the term sees one order.
    """

    kernel: SequenceTable | None
    A: np.ndarray
    shift: tuple[int, ...]
    axes: tuple[int, ...] | None = None
    order: int = 0

    def __post_init__(self):
        self.shift = tuple(int(c) for c in self.shift)
        self.A = np.asarray(self.A, dtype=complex)
        self.order = int(self.order)
        if self.order < 0:
            raise ValueError(f"difference order {self.order} < 0")
        if self.axes is not None:
            self.kernel, self.axes = sort_axes(self.kernel, self.axes)


@dataclass
class Symbol:
    """M(z) = sum_j z^j A_j + sum_w z^{s_w} (z-1)^{o_w} F_{a_w}(z_{axes_w}) A_w
    with right-hand-side factor C: the transform of the equation
    sum_j A_j u(k+j) + sum_w A_w (Delta^{o_w} (a_w * u))(k+s_w) = C f(k).

    ``pencil`` holds the (j, A_j) pairs, ``terms`` the kernel summands, and
    ``_blocks`` every summand as the one block (t, lo, V) of ``_block``, but for
    pencil pairs with A_j exactly zero (an all-zero symbol keeps its first).
    """

    n: int
    m: int
    pencil: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    terms: tuple[Term, ...]
    C: np.ndarray
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pencil = []
        seen = set()
        for j, A in self.pencil:
            j = tuple(int(c) for c in j)
            if len(j) != self.n:
                raise DimensionMismatch("pencil term index dimension mismatch")
            if j in seen:
                raise ValueError(f"duplicate pencil term index {j}")
            seen.add(j)
            pencil.append((j, np.asarray(A, dtype=complex).reshape(self.m, self.m)))
        self.terms = tuple(self.terms)
        if not pencil and not self.terms:
            raise ValueError("symbol needs at least one pencil or kernel term")
        for t in self.terms:
            a, l = t.kernel, len(t.axes or t.shift)
            if len(t.shift) != self.n or max(t.axes or (1,)) > self.n or a.dim != l:
                raise DimensionMismatch("term shift, axes or kernel dimension mismatch")
            if a.vshape[:1] not in ((), (self.m,)):
                raise DimensionMismatch(f"a kernel of value shape {a.vshape} in C^{self.m}")
            if t.order and self.n != 1:
                raise DimensionMismatch("difference terms are one-dimensional")
        self.pencil = tuple(pencil)
        self.C = np.asarray(self.C, dtype=complex).reshape(self.m, self.m)
        live = [t for t in _summands(self) if t.kernel is not None or t.A.any()]
        self._blocks = tuple(_block(t, self.n) for t in live or _summands(self)[:1])

    def max_shift(self) -> int:
        return max(max(abs(c) for c in t.shift) + t.order for t in _summands(self))


def _summands(S: Symbol) -> tuple[Term, ...]:
    """Every summand of the operator L: the pencil pairs (j, A_j) as kernel-less
    terms A_j u(k + j), then the kernel terms.  The blocks and the largest
    shift read this one list."""
    return tuple(Term(None, A, j) for j, A in S.pencil) + S.terms


def _block(t: Term, n: int):
    """A summand as one convolution block (t, lo, V): L u gains the correlation
    sum_p _times_A(t, V[p]) u(k - lo - p), and M(z) gains _times_A(t, sum_p
    V[p] z^(-lo-p)).  V is the kernel's values, length 1 off its axes, with
    z^shift (z - 1)^order folded into its index and coefficients; a pencil
    pair's V is a one-point unit at -j."""
    lo, V = [-c for c in t.shift], np.ones((1,) * n)
    if t.kernel is not None:
        a, ext = t.kernel, [1] * n
        for q, i in enumerate(j - 1 for j in t.axes or range(1, n + 1)):
            lo[i], ext[i] = lo[i] + a.support.lo[q], a.support.shape[q]
        V = a.values.reshape(tuple(ext) + a.vshape)
    for _ in range(t.order):  # 1-D: (z - 1) sum_p V(p) z^-(l + p) starts at l - 1
        lo[0], V = lo[0] - 1, _diff(V)
    return t, tuple(lo), V


def OperatorPencil(n: int, m: int, terms, C) -> Symbol:
    """P(z) = sum_j z^j A_j with right-hand-side factor C."""
    return Symbol(n, m, terms, (), C)


def VolterraTerm(kernel: SequenceTable, shift, A) -> Term:
    """A_w (a_w * u)(k + shift) over all axes."""
    return Term(kernel, A, shift)


def MultiTermSymbol(n: int, m: int, B, terms, C) -> Symbol:
    """Symbol B + sum_w z^{shift_w} F_{a_w}(z) A_w of the multi-term Volterra
    problem B u(k) + sum_w A_w (a_w * u)(k + shift_w) = C f(k) on Z^n."""
    return Symbol(n, m, (((0,) * n, B),), terms, C)


def WeylTerm(kernel: SequenceTable, order: int, shift: int, A) -> Term:
    """A_w (Delta^{order} (a_w o u))(k + shift) summand, 1-D."""
    return Term(kernel, A, (shift,), order=order)


def WeylFractionalSymbol(m: int, terms, A0, k0: int, C) -> Symbol:
    """Symbol of the 1-D multi-term generalized Weyl fractional problem.

    M(z) = sum_w sum_{j=0}^{m_w} (-1)^{m_w-j} C(m_w,j) z^{k_w+j} F_{a_w}(z) A_w
           + z^{k_0} A_0.
    """
    return Symbol(1, m, (((k0,), A0),), terms, C)


def MixedAxesTerm(kernel: SequenceTable, axes, A) -> Term:
    """A (a *^{l,j} u)(k) summand: kernel on an axis subset (1-based); its
    zero shift gets the problem dimension in MixedAxesSymbol."""
    return Term(kernel, A, (), axes)


def MixedAxesSymbol(n: int, m: int, terms, C) -> Symbol:
    """Symbol sum F_{a}(z_{j_1},...,z_{j_l}) A for partial-axes Volterra
    problems."""
    return Symbol(n, m, (), tuple(replace(t, shift=(0,) * n) for t in terms), C)


# ---------------------------------------------------------------------------
# Symbol evaluation
# ---------------------------------------------------------------------------


def _zpow(z, j):
    """prod_i z_i^j_i at a point or on an open mesh."""
    w = 1.0 + 0j
    for zi, ji in zip(z, j):
        if ji < 0 and np.any(zi == 0):
            raise ZeroCoordinate("negative power of zero coordinate")
        w = w * zi**ji
    return w


def _prefactor(z, t: Term):
    """z^shift (z - 1)^order; a negative shift raises at a zero coordinate."""
    w = _zpow(z, t.shift)
    return w * (z[0] - 1) ** t.order if t.order else w


def symbol_eval(S: Symbol, z, with_err: bool = False):
    """Evaluate the symbol matrix at a point or on an open mesh (see
    ``TransformEvaluator``): the values have the mesh shape, then (m, m).
    Optionally report, per node, the error radius contributed by truncated
    kernel-transform tails.  A kernel term is the power sum of its block; its
    prefactor z^shift (z - 1)^order is evaluated apart, for that radius."""
    z = _mesh(z)
    if len(z) != S.n:
        raise DimensionMismatch("point dimension mismatch")
    grid = np.broadcast_shapes(*(np.shape(zi) for zi in z))
    out = np.zeros(grid + (S.m, S.m), dtype=complex)
    err = np.zeros(grid)
    for t, lo, V in S._blocks:
        if t.kernel is None:
            out += np.multiply.outer(_zpow(z, t.shift), t.A)
            continue
        w = _prefactor(z, t)
        zsub = z if t.axes is None else tuple(z[j - 1] for j in t.axes)
        _check_powers(t.kernel, zsub)
        tail = forward_tail_bound(t.kernel, zsub)  # also validates region membership
        out += _times_A(t, _power_sum(V, lo, z))
        err += np.abs(w) * tail * value_norm(t.A)
    return (out, err[()]) if with_err else out


def _times_A(t: Term, fa):
    """The (m, m) factor of a block for each of its values or transform values
    in ``fa``: A F_a for a matrix kernel, since A (a * u) has the symbol A F_a;
    else F_a A with the kernel's value axes right-aligned (a pencil pair's
    values are scalars)."""
    vdim = 0 if t.kernel is None else len(t.kernel.vshape)
    if vdim == 2:
        return _left(t.A, fa)
    return fa[(..., *(None,) * (2 - vdim), *(slice(None),) * vdim)] * t.A


def _left(A, X):
    """A X for a stack X of matrices, as one product on the reshaped stack."""
    AX = np.dot(A, X.transpose(X.ndim - 2, *range(X.ndim - 2), -1).reshape(X.shape[-2], -1))
    return AX.reshape(len(A), *X.shape[:-2], X.shape[-1]).transpose(*range(1, X.ndim - 1), 0, -1)


pencil_eval = symbol_eval


def operator_amplification(S: Symbol) -> float:
    """Bound on how the equation operator scales a solution perturbation."""
    return sum(
        value_norm(t.A)
        * 2.0**t.order
        * (1.0 if t.kernel is None else float(np.sum(t.kernel.norms())))
        for t, _, _ in S._blocks
    )


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


@dataclass
class KernelResult:
    table: SequenceTable  # carries the decay envelope (fitted on the contour path)
    aliasing: np.ndarray  # per-entry ledger: wrap-around surrogate, or series error bound
    min_rcond: float  # over the contour nodes, or the series path's certified bound
    contour_max: float  # max ||M(z)^{-1} C|| over contour nodes, or its certified bound
    symbol_err: float  # max kernel-transform tail radius over nodes; 0 on the series path


@np.errstate(divide="ignore", invalid="ignore")
def _solve_stack(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """M^{-1} C at every node of a stack of m x m matrices.

    m = 1 divides; m = 2 is Gaussian elimination with partial pivoting (the
    pivot LAPACK picks, by |re| + |im|) written elementwise, which is backward
    stable.  Each node's system is first scaled by 1 / its pivot's |re| +
    |im|, so that no later divisor is subnormal where rcond >= 1e-12: numpy's
    complex division overflows on one.  Each step is one elementwise
    operation over the whole stack, one right-hand side column at a time.
    Larger m calls the stacked LAPACK solve.  A singular node gives a
    non-finite value at that node.
    """
    if M.shape[-2:] == (1, 1):
        return C / M
    if M.shape[-2:] != (2, 2):
        return np.linalg.solve(M, np.broadcast_to(C, M.shape))
    a, b, c, d = (M[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    na, nc = (np.abs(v.real) + np.abs(v.imag) for v in (a, c))
    swap = nc > na
    s = 1.0 / np.maximum(na, nc)
    p, q = np.where(swap, c, a) * s, np.where(swap, a, c) * s  # pivot row, other row
    pb, qb = np.where(swap, d, b) * s, np.where(swap, b, d) * s
    l = q / p
    u = qb - l * pb
    out = np.empty(np.broadcast_shapes(M.shape, C.shape), dtype=complex)
    for j in range(out.shape[-1]):  # one right-hand side column at a time
        y0, y1 = C[..., 0, j], C[..., 1, j]
        py, qy = np.where(swap, y1, y0) * s, np.where(swap, y0, y1) * s
        out[..., 1, j] = x1 = (qy - l * py) / u
        out[..., 0, j] = (py - pb * x1) / p
    return out


def _inverse_evaluator(S: Symbol, C):
    state = {"min_rcond": math.inf, "contour_max": 0.0, "symbol_err": 0.0}

    def fn(z):
        M, err = symbol_eval(S, z, with_err=True)
        finite = np.isfinite(M)
        if not finite.all():
            t = tuple(int(i) for i in np.argwhere(~finite)[0][:-2])  # first in row-major order
            raise EvaluatorFailure(t, f"non-finite symbol value {M[t]!r}")
        smax, smin = _sv_extremes(M)
        rcond = smin / np.where(smax > 0, smax, 1.0)  # 0 where M = 0
        bad = rcond < RCOND_MIN
        if bad.any():
            t = tuple(np.argwhere(bad)[0])  # the first node in row-major order
            node = np.array([np.broadcast_to(zi, bad.shape)[t] for zi in z])
            raise SingularSymbol(tuple(np.round(node, 12)), float(rcond[t]))
        out = _solve_stack(M, C)
        state["min_rcond"] = min(state["min_rcond"], float(np.min(rcond)))
        state["contour_max"] = max(state["contour_max"], float(np.max(value_norms(out, 2))))
        state["symbol_err"] = max(state["symbol_err"], float(np.max(err)))
        return out

    region = PolyAnnulus(tuple(Outside(0.0) for _ in range(S.n)))
    return TransformEvaluator(fn, region, "matrix", S.m), state


def _fit_envelope(table: SequenceTable, radii: Sequence[float]) -> Envelope:
    """Fit a geometric decay envelope to a computed kernel window.

    A numerical surrogate for the unknown true decay: per-axis rate from the
    worst adjacent-norm ratio over the outer half of the window, constant as
    the exact maximum of norm / rate^k.  Rates are clipped below the contour
    radii so the aliasing formula stays finite.
    """
    norms = table.norms()
    n = table.dim
    rates = []
    for ax in range(n):
        lead = np.moveaxis(norms, ax, 0)
        L = lead.shape[0]
        start = max(L // 2, 1) - 1 if L > 2 else 0
        a, b = lead[start:-1], lead[start + 1 :]
        mask = (a > 1e-250) & (b > 1e-250)
        rho = float(np.max(b[mask] / a[mask])) if mask.any() else 0.5 * radii[ax]
        rho = min(max(rho, 1e-6), 0.95 * radii[ax])
        rates.append(rho)
    weights = np.ones_like(norms)
    for ax, rho in enumerate(rates):
        ks = np.arange(table.support.lo[ax], table.support.hi[ax] + 1, dtype=float)
        shape = [1] * n
        shape[ax] = -1
        weights = weights * (rho**ks).reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # weights may underflow to 0
        M = float(np.max(norms / weights, where=norms > 0, initial=0.0))
    return Envelope(M, tuple(rates))


def _fro(X):
    """Frobenius norms of a stack of m x m matrices, in the stack's shape."""
    return value_norms(np.reshape(X, np.shape(X)[:-2] + (np.shape(X)[-1] ** 2,)), 1)


@np.errstate(all="ignore")  # a non-finite B gives fw or the tails nan: q nan refuses
def _operator(S: Symbol, radii, window: Box):
    """z^{-j*} M(z) = sum_k B_k z^{-k} on the box 0..K and the certificate's terms that rest
    on the symbol alone, or None where no certificate can be formed (module docstring)."""
    n, m, R, blocks = S.n, S.m, np.asarray(radii, dtype=float), S._blocks
    jstar = tuple(max(t.shift[i] + t.order for t, _, _ in blocks) for i in range(n))
    if min(jstar) < 0:  # Hs(k) = H(k - j*) would start off N0^n
        return None
    K = tuple(map(max, window.hi, jstar))  # Hs(k) = H(k - j*) on 0..K needs B on 0..K - j*
    kb = tuple(k + 1 - j for k, j in zip(K, jstar))
    for a in (t.kernel for t in S.terms):
        lows = [axis_interval(a.domain, i)[0] for i in range(a.dim)] if a.envelope else ()
        if any(c is None or c < 0 for c in (*lows, *a.support.lo)):
            return None  # not causal
    sl = [tuple(slice(c + j, c + j + e) for c, j, e in zip(lo, jstar, V.shape))
          for _, lo, V in blocks]
    ext = tuple(map(max, zip(*((c.stop for c in q) for q in sl))))  # the blocks' stored extent
    B = np.zeros(tuple(map(max, kb, ext)) + (m, m), complex)
    ws = (x ** -np.arange(max(k + 1, e)) for x, k, e in zip(R, K, B.shape))
    w = functools.reduce(np.multiply.outer, ws)  # R^-k over the box and B
    # forming B rounds (the A V products, the (z - 1)^o fold, the sums of overlapping blocks)
    # within sqrt(2) gamma_s, s = 2m + o + 1 + the blocks, of ||A|| ||V(p)||_F at lo + j* + p:
    # fw weighted, f1 not.  The fold is o first differences D_s, each within u of its result
    # and then differenced o - s more times; D_o is V itself
    fw = f1 = 0.0
    gb = 1.43 * 2.0**-53 * (2 * m + 1 + max(t.order for t, _, _ in blocks) + len(blocks))
    nAs = _fro(np.stack([t.A for t, _, _ in blocks]))  # each block's ||A||_F, read again below
    for (t, _, V), q, ga in zip(blocks, sl, gb * nAs):  # B_k sums the blocks placed at lo + j*
        B[q] += _times_A(t, V)
        nv = value_norms(V.reshape(V.shape[:n] + (-1,)), 1)
        D = t.kernel.values.reshape(len(V) - t.order, -1) if t.order else None
        for i in range(t.order - 1, 0, -1):  # D_s for s = o - i
            D = _diff(D)
            nv = nv + np.convolve(value_norms(D, 1), np.abs(_stencil(i)))
        f1, fw = f1 + ga * nv.sum(), fw + ga * (nv * w[q]).sum()
    tail = miss = 0.0  # unstored kernel coefficients: ||.||_w over N0^n, and their sum on 0..K - j*
    for (t, _, _), nA in zip(blocks, nAs):  # B_{d0 + l} for l <= top
        if t.kernel is None or not t.kernel.envelope:
            continue
        a, ax = t.kernel, [j - 1 for j in t.axes or range(1, n + 1)]
        d0 = np.subtract(jstar, t.shift) - t.order
        top = np.subtract(kb, d0 + 1)
        try:  # ||A a(l)|| <= ||A|| ||a(l)||_2 for every value kind of a
            tail += nA * forward_tail_bound(a, R[ax]) * np.prod(R**-d0) * (1 + 1 / R[0]) ** t.order
        except (PointOutsideRegion, NoEnvelope):
            return None
        if any(p > 0 or q < top[i] for p, q, i in zip(a.support.lo, a.support.hi, ax)):
            env = (a.envelope.axis_factor(q, np.arange(top[i] + 1)) for q, i in enumerate(ax))
            ew = functools.reduce(np.multiply.outer, env, a.envelope.M * np.all(top >= 0))
            ew[tuple(slice(p, q + 1) for p, q in zip(a.support.lo, a.support.hi))] = 0
            miss += 2**t.order * nA * ew.sum()
    return SimpleNamespace(B=B, bn=_fro(B), ext=ext, jstar=jstar, K=K, R=R, w=w, fw=fw, f1=f1,
                           tail=tail, miss=miss)


@np.errstate(all="ignore")  # a non-finite B_0 gives a non-finite Hs, which _certify refuses
def _series(op, m: int):
    """(Hs, B Hs) on 0..K from B Hs = delta_{j*}, or None for a singular B_0: in 1-D over B_j
    up to the last nonzero, by blocks (_series_1d); in n-D, B Hs left to _certify, a level v.k
    at a time over the nonzero B_j, for the unit or all-ones v with v.j >= 1, fewest levels."""
    n, K, jstar, box = len(op.K), op.K, op.jstar, tuple(k + 1 for k in op.K)
    try:
        Binv = np.linalg.inv(op.B[(0,) * n])
    except np.linalg.LinAlgError:  # a singular B_0
        return None
    P, bn = math.prod(box), op.bn[tuple(slice(k + 1 - j) for k, j in zip(K, jstar))]
    J = np.argwhere(bn != 0) if n > 1 else np.arange(np.flatnonzero(bn)[-1] + 1)[:, None]
    BJ = op.B[tuple(J.T)].transpose(1, 0, 2).reshape(m, len(J) * m)
    if n == 1:
        return _series_1d(Binv, BJ, P, jstar[0])
    cat = -Binv @ BJ[:, m:]
    v = min((*np.eye(n, dtype=int)[(J[1:] >= 1).all(0)], np.ones(n, int)), key=lambda v: v @ K)
    pts = np.indices(box).reshape(n, -1)
    order = np.argsort(v @ pts, kind="stable")
    rank = np.argsort(order)
    flat = np.zeros((P + 1, m, m), dtype=complex)  # by level, then a zero row
    flat[rank[np.ravel_multi_index(jstar, box)]] = Binv
    ends = np.cumsum(np.bincount(v @ pts))[v @ jstar :]
    per = max(1, 2**20 // (len(J) * int(np.diff(ends).max(initial=1))))  # levels per gather
    for c in range(0, len(ends) - 1, per):  # where Hs(k - j) is, for at most 2^20 pairs (k, j)
        e = ends[c : c + per + 1]
        src = pts[:, order[e[0] : e[-1]], None] - J[1:].T[:, None, :]
        idx = np.where((src >= 0).all(0), rank[np.ravel_multi_index(np.maximum(src, 0), box)], P)
        for i0, i1 in zip(e[:-1], e[1:]):  # the points of one level
            gathered = flat[idx[i0 - e[0] : i1 - e[0]]].reshape(i1 - i0, len(J) * m - m, m)
            flat[i0:i1] = np.dot(cat, gathered).transpose(1, 0, 2)
    return flat[rank].reshape(box + (m, m)), None


@np.errstate(all="ignore")  # a non-finite B or Hs gives q nan, which refuses; ledger terms read inf
def _certify(S: Symbol, op, Hs, r, window: Box):
    """G = Hs C on the window and its ledger from r = B Hs - delta_{j*}, for any Hs on 0..K
    that vanishes off j* + N0^n: B Hs as the producer passed it, else one correlation over
    B's stored extent.  None where r does not certify Hs (see the module docstring)."""
    n, m, R, K, jstar, bn, w = S.n, S.m, op.R, op.K, op.jstar, op.bn, op.w
    box, o = tuple(k + 1 for k in K), (0,) * n
    r = _correlate(op.B[tuple(map(slice, op.ext))], o, Hs, o, Box(o, K), 2, 2) if r is None else r
    r[jstar] -= np.eye(m)  # its rounding is within g (|B| * |Hs|), g >= gamma_n
    rn, hn = _fro(np.stack((r, Hs)))
    at = tuple(slice(k + 1 - j) for k, j in zip(K, jstar))
    g = 1.01 * 2.0**-53 * (m * np.count_nonzero(bn[at]) + 4)  # n terms, complex, n u < 0.01
    # q = ||r||_w over N0^n for w(k) = R^-(k - j*) = c R^-k: the measured rows, their
    # rounding, the unstored coefficients, forming B, and the rows past K along each axis
    wH, c = w[tuple(map(slice, box))], math.prod(R ** np.array(jstar))
    hw, bw = hn * wH, bn * w[tuple(map(slice, bn.shape))]
    Hw, past = float(hw.sum()), 0.0
    for i in range(n):  # the rows k_i = K_i + t reach from Hs(k) with k_i > K_i - t
        rest = tuple(a for a in range(n) if a != i)
        suffix = np.cumsum(bw.sum(rest)[::-1])[::-1][1 : K[i] + 2]  # sum over j_i > t
        past += hw.sum(rest)[::-1][: len(suffix)] @ suffix
    q = c * float((rn * wH).sum() + (g * bw[at].sum() + op.tail + op.fw) * Hw + past)
    rc = (1 - q) / (c * Hw * (float(bw.sum()) + op.tail + op.fw))  # ||B^-1||_w <= c Hw / (1 - q)
    if not (q < 1 and rc >= RCOND_MIN):
        return None
    # ledger: ||Hs* - Hs||_1 <= ||Hs|| ||r|| / (1 - ||r||) on box 0..k, r on it; g ||Hs|| for C
    h = functools.reduce(np.cumsum, range(n), hn)
    rho = functools.reduce(np.cumsum, range(n), rn) + (g * bn[at].sum() + op.miss + op.f1) * h
    led = np.divide(h * rho, 1 - rho, out=np.full(box, math.inf), where=rho < 1) + g * hn
    nc = float(_fro(S.C))
    bound = nc * Hw / (1 - q)  # R^-j* ||M^-1||_w ||C||
    at = tuple(slice(a, b + 1) for a, b in zip(window.lo, window.hi))
    G = (Hs[at].reshape(-1, m) @ S.C).reshape(window.shape + (m, m))
    table = SequenceTable(nonneg_orthant(n), window, G, "matrix", m, Envelope(bound, tuple(R)))
    return KernelResult(table, nc * led[at] if nc else np.zeros(window.shape), rc, bound, 0.0)


def _series_1d(Binv, BJ, P: int, j0: int):
    """Hs(0..P - 1) from B Hs = delta_{j0} in 1-D, for BJ = [B_0 .. B_{J-1}] (m x J m),
    and B Hs on 0..P - 1.  Hs(j0) .. Hs(j0 + b - 1) come one product per coefficient;
    each further block [s, e) of b comes from its history h = [B_1 .. B_{J-1}] Hs,
    taken while the block's rows are still zero, as Hs[s:e] = -T_H h, with T_H the
    lower block-Toeplitz matrix of the first b coefficients (the inverse of B's
    leading one, T_B); its rows of B Hs are h + T_B Hs[s:e]."""
    m, J = len(Binv), BJ.shape[1] // len(Binv)
    flat = np.zeros((P + J, m, m), dtype=complex)  # Hs(i) at flat[P - i], then zero rows
    flat[P - j0], rows = Binv, flat.reshape(-1, m)
    step, rs = flat.strides[0], rows.strides  # windows[k]: Hs(k) .. Hs(k - J + 1), stacked
    windows = np.ndarray((P, J * m, m), complex, flat, P * step, (-step, *rs))
    b = max(1, min(P - j0, J - 1, math.isqrt(3 * (P - j0))))
    head = P if b == 1 else j0 + b
    cat = -Binv @ BJ[:, m:]
    for k in range(j0 + 1, head):  # Hs(k - 1) .. Hs(k - J + 1), stacked, into Hs(k)
        np.dot(cat, rows[(P + 1 - k) * m : (P + J - k) * m], out=flat[P - k])
    r = np.empty((P, m, m), dtype=complex)  # B Hs (k) at r[P - 1 - k]
    r[P - head :] = BJ @ windows[head - 1 :: -1]
    if head < P:  # the blocks run in flat's order, k descending: T_H and T_B upper triangular
        Bz = np.zeros((2 * b - 1, m, m), dtype=complex)  # B_j at Bz[b - 1 + j], zeros below
        Bz[b - 1 :] = BJ[:, : b * m].reshape(m, b, m).transpose(1, 0, 2)
        # [a, :, c, :] of T_H is Hs(j0 + c - a), of T_B is B_{c - a}; both zero for c < a
        TH = np.ndarray((b, m, b, m), complex, flat, (P - j0) * step, (step, rs[0], -step, rs[1]))
        TB = np.ndarray((b, m, b, m), complex, Bz, (b - 1) * step, (-step, rs[0], step, rs[1]))
        nTH, TB = -TH.reshape(b * m, b * m), TB.reshape(b * m, b * m)
    for s in range(head, P, b):
        e = min(s + b, P)
        w = (e - s) * m
        h = np.matmul(BJ[:, m:], windows[e - 1 : s - 1 : -1, m:]).reshape(w, m)
        x = np.matmul(nTH[:w, :w], h, out=rows[(P - e + 1) * m : (P - s + 1) * m])
        rb = np.matmul(TB[:w, :w], x, out=r[P - e : P - s].reshape(w, m))
        rb += h
    return flat[P:0:-1], r[::-1]


def green_function(S: Symbol, radii: Sequence[float], window: Box, grid=None) -> KernelResult:
    """Green (resolvent) kernel G(k) of any symbol, with per-entry ledgers: where
    ``_operator`` forms B, the series' or else the contour's on 0..K, its ledger from
    ``_certify`` or inf; else the contour's on the window with a surrogate ledger (module
    docstring).  The kernel lies on N0^n for a window with lo >= 0, else on Z^n."""
    if len(radii) != S.n or window.dim != S.n:
        raise DimensionMismatch("radii/window dimension mismatch")
    causal_window = all(c >= 0 for c in window.lo)
    domain = nonneg_orthant(S.n) if causal_window else FullLattice(S.n)
    op = _operator(S, radii, window) if causal_window else None
    if op is not None and grid is None and (hs := _series(op, S.m)) is not None:
        if (kr := _certify(S, op, *hs, window)) is not None:
            return kr
    if op is not None and (grid is None or all(g > k for g, k in zip(grid, op.K))):
        ev, state = _inverse_evaluator(S, np.eye(S.m))
        H = invert_contour(ev, radii, Box((0,) * S.n, op.K), grid=grid).table.values
        Hs, live = np.zeros_like(H), tuple(slice(j, None) for j in op.jstar)
        Hs[live] = H[live]  # zero off j* + N0^n, where the exact kernel vanishes
        if (kr := _certify(S, op, Hs, None, window)) is not None:
            return kr
        at = tuple(slice(a, b + 1) for a, b in zip(window.lo, window.hi))
        G = SequenceTable(domain, window, H[at] @ S.C, "matrix", S.m)
        table = SequenceTable(domain, window, G.values, "matrix", S.m, _fit_envelope(G, radii))
        return KernelResult(table, np.full(window.shape, math.inf), state["min_rcond"],
                            state["contour_max"] * value_norm(S.C), state["symbol_err"])
    ev, state = _inverse_evaluator(S, S.C)
    res: InversionResult = invert_contour(ev, radii, window, grid=grid)
    env = _fit_envelope(res.table, radii)
    table = SequenceTable(domain, window, res.table.values, "matrix", S.m, envelope=env)
    aliasing = _aliasing_bounds(env, domain, res.radii, res.grid, window, state["contour_max"])
    # fold the symbol-evaluation error into the surrogate: a perturbation dM of the samples
    # moves each coefficient by r^k ||M^-1|| ||dM|| ||M^-1 C||-type terms, bounded bluntly
    if state["symbol_err"] > 0:
        ks = (np.arange(lo, hi + 1.0) for lo, hi in zip(window.lo, window.hi))
        w = math.prod(np.ix_(*(float(r) ** k for r, k in zip(radii, ks))))
        nc = max(value_norm(S.C), 1e-300)
        aliasing += w * state["symbol_err"] * state["contour_max"] ** 2 / nc
    return KernelResult(table, aliasing, state["min_rcond"], state["contour_max"],
                        state["symbol_err"])


resolvent_kernel = green_function


# ---------------------------------------------------------------------------
# Solve / residual / uniqueness
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    u: SequenceTable
    error: np.ndarray  # per-entry solution error surrogate
    ledger: float  # residual-scale bound: amplification * max entry error
    kernel: KernelResult


def promote_data(f: SequenceTable, m: int) -> SequenceTable:
    """Scalar data against an m > 1 state space acts on the all-ones vector."""
    if m == 1 or f.value_kind != "scalar":
        return f
    values = f.values[..., None] * np.ones(m, dtype=complex)
    return SequenceTable(f.domain, f.support, values, "vector", m, f.envelope)


def check_initial_conditions(P: Symbol, f: SequenceTable) -> None:
    """Orthant variant: f must vanish on the staircase N0^n \\ (j + N0^n)."""
    n = f.dim
    k = np.indices(f.support.shape) + np.reshape(f.support.lo, (n,) + (1,) * n)
    live = np.all(k >= 0, axis=0) & (f.norms() != 0.0)
    for j, _ in P.pencil:
        bad = live & np.any(k < np.reshape(j, (n,) + (1,) * n), axis=0)
        if bad.any():
            idx = tuple(np.argwhere(bad)[0])  # the first in row-major order
            at = tuple(int(a + i) for a, i in zip(f.support.lo, idx))
            v = complex(f.values[idx]) if f.value_kind == "scalar" else f.values[idx]
            raise InitialConditionViolated(f"f{at} = {v!r} nonzero on the staircase of term {j}")


def solve(
    S: Symbol,
    f: SequenceTable,
    radii: Sequence[float],
    kernel_window: Box,
    out_window: Box,
    grid=None,
    orthant_variant: bool = False,
) -> SolveResult:
    """u = kernel conv f on the output window, with an error surrogate ledger."""
    f = promote_data(f, S.m)
    if orthant_variant and not S.terms:
        check_initial_conditions(S, f)
    kr = green_function(S, radii, kernel_window, grid)
    u, conv_ledger = conv_general(kr.table, f, out_window, enforce=False, return_ledger=True)
    err = conv_ledger if conv_ledger is not None else np.zeros(out_window.shape)
    # propagate kernel aliasing through the convolution with |f|; an infinite
    # bound makes every entry infinite that it reaches through nonzero data
    # (the correlation would pair it with zeros into nan)
    fn, inf = f.norms(), np.isinf(kr.aliasing)
    k_lo, f_lo = kernel_window.lo, f.support.lo
    prop = _correlate(np.where(inf, 0.0, kr.aliasing), k_lo, fn, f_lo, out_window)
    if inf.any():
        prop[_correlate(inf * 1.0, k_lo, (fn > 0) * 1.0, f_lo, out_window) > 0] = math.inf
    err = err.astype(float) + prop
    ledger = operator_amplification(S) * float(np.max(err)) + 1e-12
    if f.value_kind == "scalar":  # m = 1: the 1 x 1 kernel acts as a scalar
        u = SequenceTable(u.domain, u.support, u.values.reshape(u.support.shape))
    return SolveResult(u, err, ledger, kr)


def _apply(S: Symbol, u: SequenceTable, window: Box) -> np.ndarray:
    """(L u)(k) at every k of the window: one correlation per block of ``S``."""
    return sum(
        _correlate(_times_A(t, V), lo, u.values, u.support.lo, window, 2, len(u.vshape))
        for t, lo, V in S._blocks
    )


def residual(S: Symbol, u: SequenceTable, f: SequenceTable, check_window: Box) -> dict:
    """Max over the window of || (L u)(k) - C f(k) || by direct substitution."""
    f = promote_data(f, S.m)
    n = check_window.dim
    pad = S.max_shift()
    for c, a, b, d in zip(check_window.lo, u.support.lo, u.support.hi, check_window.hi):
        if u.envelope is not None and (c - pad < a or d + pad > b):
            raise InsufficientWindow("u window too small for residual shifts")
    C = S.C.reshape((1,) * n + S.C.shape)  # C f is the block of C at 0
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range raises
        Lu = _apply(S, u, check_window)
        Cf = _correlate(C, (0,) * n, f.values, f.support.lo, check_window, 2, len(f.vshape))
        diff = Lu - Cf.reshape(Lu.shape)  # for m = 1, u and f may differ in value axes
    _check_finite(diff, check_window)
    worst = float(np.max(value_norms(diff, diff.ndim - n)))
    return {"max_residual": worst, "window": (check_window.lo, check_window.hi)}


# ---------------------------------------------------------------------------
# Uniqueness probe
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")
def pencil_roots_1d(P: Symbol) -> np.ndarray:
    """Roots of a 1-D scalar pencil's characteristic polynomial c, scaled by
    powers of 2 to |c_0| in [1/2, 1); a root past the float range reads inf.
    Where some |c_i / c_0| > 2^1000, the roots are 2^e times those of the
    polynomial in w = z 2^-e, whose ratios c_i 2^(-i e) / c_0 are at most 1."""
    if P.n != 1 or P.m != 1:
        raise ValueError("root location implemented for 1-D scalar pencils")
    jmin = min(j[0] for j, _ in P.pencil)
    jmax = max(j[0] for j, _ in P.pencil)
    coeffs = np.zeros(jmax - jmin + 1, dtype=complex)
    for j, A in P.pencil:
        coeffs[jmax - j[0]] = complex(A.reshape(()))
    c = np.trim_zeros(coeffs, "f")  # c[0] != 0, unless every coefficient is 0
    i = np.flatnonzero(c)[1:]
    logs = np.log2(np.abs(c[i])) - np.log2(np.abs(c[:1]))
    e = int(np.ceil(np.max(logs / i))) if np.max(logs, initial=0) > 1000 else 0
    k = -np.frexp(np.abs(c[:1]))[1] - e * np.arange(len(c))
    w = np.roots(np.ldexp(c.real, k) + 1j * np.ldexp(c.imag, k))
    return np.ldexp(w.real, e) + 1j * np.ldexp(w.imag, e) if e else w


@np.errstate(over="ignore", invalid="ignore")
def homogeneous_mode_residual(P: Symbol, lams, window: Box) -> float:
    """Max |sum_j a_j lam^{k+j}| over the window for a scalar pencil root.

    Zero (to rounding) certifies that adding the geometric mode
    prod lam_i^{k_i} to any solution leaves the equation residual unchanged.
    A mode past the float range reads inf.
    """
    ks = np.ix_(*(np.arange(a, b + 1) for a, b in zip(window.lo, window.hi)))
    acc = np.zeros(window.shape, dtype=complex)
    for j, A in P.pencil:
        term = complex(A.reshape(()))
        for li, ki, ji in zip(lams, ks, j):
            term = term * complex(li) ** (ki + ji)
        acc = acc + term
    return float(np.max(np.where(np.isnan(acc), math.inf, np.abs(acc))))


def uniqueness_probe(
    S: Symbol,
    z_samples: Sequence[Sequence[complex]],
    threshold: float = 1e-10,
) -> dict:
    """sigma_min of the symbol at each sample; injectivity witnessed iff all
    exceed the threshold.  For 1-D scalar pencils the root modes are located
    and their residual-invariance is verified as well, and sigma_min is also
    taken at each finite nonzero root moved onto each sample's circle, |z| lam /
    |lam|: a root on a sampled circle makes the symbol singular there."""
    roots = pencil_roots_1d(S) if not S.terms and S.n == 1 and S.m == 1 else np.zeros(0)
    live = [lam for lam in roots if abs(lam) > 1e-10]
    on = [(abs(z[0]) * lam / abs(lam),) for z in z_samples for lam in live if abs(lam) < math.inf]
    Ms = [symbol_eval(S, z) for z in (*z_samples, *on)]
    sigmas = _sv_extremes(np.array(Ms))[1].tolist() if Ms else []
    witnessed = bool(sigmas) and all(s > threshold for s in sigmas)
    report = {
        "min_sigma": min(sigmas) if sigmas else float("nan"),
        "samples": len(z_samples),
        "threshold": threshold,
        "verdict": "injectivity witnessed on samples" if witnessed else "not witnessed",
    }
    if not S.terms and S.n == 1 and S.m == 1:
        devs = [homogeneous_mode_residual(S, (lam,), Box((0,), (16,))) for lam in live]
        report["root_mode_max_residual"] = max(devs) if devs else 0.0
        report["roots"] = [complex(r) for r in roots]
    return report
