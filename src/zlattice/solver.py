"""Operator pencils, Volterra symbols, and contour-inversion solvers over C^m.

A constant-coefficient partial difference equation sum_j A_j u(k+j) = C f(k)
has the matrix symbol P(z) = sum_j z^j A_j; its Green kernel is the inverse
transform of P(z)^{-1} C and convolving it with the data yields a solution.
Volterra and Weyl-fractional problems carry structured symbols built from
kernel transforms.  Kernel construction inverts the symbol on a whole
polycircle node grid at once, behind a 2-norm reciprocal-condition gate.  For
m <= 2 the gate and the solve are closed forms over the whole node stack,
with no per-node LAPACK call: sigma_max and sigma_min of a 2 x 2 matrix from
one column-pivoted QR step (its column norms, column inner product and
determinant), and the solve as 2 x 2 Gaussian elimination with partial
pivoting written elementwise (a division for m = 1); larger m uses the
stacked numpy.linalg svd and solve.  Truncation and aliasing surrogates are
collected into an error ledger that is reported, never silently asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .convolution import _correlate, conv_axes, conv_general
from .errors import (
    DimensionMismatch,
    EvaluatorFailure,
    InitialConditionViolated,
    InsufficientWindow,
    SingularSymbol,
    ZeroCoordinate,
)
from .fractional import forward_difference
from .lattice import (
    Box,
    Envelope,
    FullLattice,
    LatticeDomain,
    SequenceTable,
    _sv_extremes,
    nonneg_orthant,
    value_norm,
    value_norms,
)
from .ztransform import (
    InversionResult,
    Outside,
    PolyAnnulus,
    TransformEvaluator,
    _aliasing_bounds,
    _mesh,
    domain_sides,
    eval_forward,
    invert_contour,
)

RCOND_MIN = 1e-12


# ---------------------------------------------------------------------------
# Problem symbols
# ---------------------------------------------------------------------------


@dataclass
class Term:
    """One kernel summand A (Delta^{order} (a * u))(k + shift) of an equation.

    The kernel acts on the 1-based axis subset ``axes`` (None: all axes); its
    symbol contribution is z^shift (z - 1)^order F_a(z_axes) A.
    """

    kernel: SequenceTable
    A: np.ndarray
    shift: tuple[int, ...]
    axes: tuple[int, ...] | None = None
    order: int = 0

    def __post_init__(self):
        self.shift = tuple(int(c) for c in self.shift)
        self.A = np.asarray(self.A, dtype=complex)
        self.order = int(self.order)
        if self.axes is not None:
            self.axes = tuple(int(j) for j in self.axes)
            if self.kernel.dim != len(self.axes):
                raise DimensionMismatch("mixed-axes kernel dimension != axis count")


@dataclass
class Symbol:
    """M(z) = sum_j z^j A_j + sum_w z^{s_w} (z-1)^{o_w} F_{a_w}(z_{axes_w}) A_w
    with right-hand-side factor C: the transform of the equation
    sum_j A_j u(k+j) + sum_w A_w (Delta^{o_w} (a_w * u))(k+s_w) = C f(k).

    ``pencil`` holds the (j, A_j) pairs, ``terms`` the kernel summands.
    """

    n: int
    m: int
    pencil: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    terms: tuple[Term, ...]
    C: np.ndarray

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
            if len(t.shift) != self.n:
                raise DimensionMismatch("term shift dimension mismatch")
            if t.order and self.n != 1:
                raise DimensionMismatch("difference terms are one-dimensional")
        self.pencil = tuple(pencil)
        self.C = np.asarray(self.C, dtype=complex).reshape(self.m, self.m)

    def max_shift(self) -> int:
        return max(
            [max(abs(c) for c in j) for j, _ in self.pencil]
            + [max(abs(c) for c in t.shift) + t.order for t in self.terms]
        )


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
    """z^shift (z - 1)^order, the binomial sum written out when order > 0."""
    if not t.order:
        return _zpow(z, t.shift)
    return sum(
        (-1) ** (t.order - j) * math.comb(t.order, j) * _zpow(z, (t.shift[0] + j,))
        for j in range(t.order + 1)
    )


def pencil_eval(P: Symbol, z) -> np.ndarray:
    """P(z) = sum_j z^j A_j of a pencil (the whole symbol M(z) in general)."""
    return symbol_eval(P, z)


def symbol_eval(S: Symbol, z, with_err: bool = False):
    """Evaluate the symbol matrix at a point or on an open mesh (see
    ``TransformEvaluator``): the values have the mesh shape, then (m, m).
    Optionally report, per node, the error radius contributed by truncated
    kernel-transform tails."""
    z = _mesh(z)
    if len(z) != S.n:
        raise DimensionMismatch("point dimension mismatch")
    grid = np.broadcast_shapes(*(np.shape(zi) for zi in z))
    out = np.zeros(grid + (S.m, S.m), dtype=complex)
    for j, A in S.pencil:
        out += np.multiply.outer(_zpow(z, j), A)
    err = np.zeros(grid)
    for t in S.terms:
        zsub = z if t.axes is None else tuple(z[j - 1] for j in t.axes)
        fa, tail = eval_forward(t.kernel, zsub, with_tail=True)
        w = _prefactor(z, t)
        if t.kernel.value_kind == "matrix":  # A (a * u) has the symbol A F_a
            out += np.expand_dims(w, (-2, -1)) * (t.A @ fa)
        else:  # kernel value axes right-aligned against (m, m)
            fa = np.expand_dims(fa, tuple(range(-2, -len(t.kernel.vshape))))
            out += np.expand_dims(w, (-2, -1)) * fa * t.A
        err += np.abs(w) * tail * value_norm(t.A)
    return (out, err[()]) if with_err else out


def operator_amplification(S: Symbol) -> float:
    """Bound on how the equation operator scales a solution perturbation."""
    amp = 0.0
    for _, A in S.pencil:
        amp += value_norm(A)
    for t in S.terms:
        amp += value_norm(t.A) * (2.0**t.order) * float(np.sum(t.kernel.norms()))
    return amp


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


@dataclass
class KernelResult:
    table: SequenceTable  # carries the fitted decay envelope
    aliasing: np.ndarray  # per-entry wrap-around surrogate bound
    min_rcond: float
    contour_max: float  # max ||M(z)^{-1} C|| over contour nodes
    symbol_err: float  # max kernel-transform tail radius over nodes


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


def _inverse_evaluator(S: Symbol, rcond_min: float):
    state = {"min_rcond": math.inf, "contour_max": 0.0, "symbol_err": 0.0}

    def fn(z):
        M, err = symbol_eval(S, z, with_err=True)
        finite = np.isfinite(M)
        if not finite.all():
            t = tuple(int(i) for i in np.argwhere(~finite)[0][:-2])  # first in row-major order
            raise EvaluatorFailure(t, f"non-finite symbol value {M[t]!r}")
        smax, smin = _sv_extremes(M)
        rcond = smin / np.where(smax > 0, smax, 1.0)  # 0 where M = 0
        bad = rcond < rcond_min
        if bad.any():
            t = tuple(np.argwhere(bad)[0])  # the first node in row-major order
            node = np.array([np.broadcast_to(zi, bad.shape)[t] for zi in z])
            raise SingularSymbol(tuple(np.round(node, 12)), float(rcond[t]))
        out = _solve_stack(M, S.C)
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
    M = float(np.max(norms / weights)) if norms.size else 0.0
    return Envelope(M, tuple(rates))


def _build_kernel(
    S: Symbol,
    radii: Sequence[float],
    window: Box,
    grid=None,
    domain: LatticeDomain | None = None,
    rcond_min: float = RCOND_MIN,
) -> KernelResult:
    ev, state = _inverse_evaluator(S, rcond_min)
    if domain is None:
        domain = nonneg_orthant(S.n) if all(c >= 0 for c in window.lo) else FullLattice(S.n)
    res: InversionResult = invert_contour(ev, radii, window, grid=grid, domain=domain)
    env = _fit_envelope(res.table, radii)
    table = SequenceTable(
        domain, window, res.table.values, "matrix", S.m, envelope=env
    )
    sides = domain_sides(table)
    aliasing = _aliasing_bounds(env, sides, tuple(radii), res.grid, window)
    # fold the symbol-evaluation error into the per-entry surrogate:
    # a perturbation dM of the contour samples moves each coefficient by at
    # most r^k * ||M^-1|| * ||dM|| * ||M^-1 C||-type terms; use the blunt
    # contour-uniform bound instead.
    if state["symbol_err"] > 0:
        ks = (np.arange(lo, hi + 1.0) for lo, hi in zip(window.lo, window.hi))
        w = math.prod(np.ix_(*(float(r) ** k for r, k in zip(radii, ks))))
        aliasing += (
            w * state["symbol_err"] * state["contour_max"] ** 2 / max(value_norm(S.C), 1e-300)
        )
    return KernelResult(
        table, aliasing, state["min_rcond"], state["contour_max"], state["symbol_err"]
    )


def green_function(
    P: Symbol,
    radii: Sequence[float],
    window: Box,
    grid=None,
    domain: LatticeDomain | None = None,
    rcond_min: float = RCOND_MIN,
) -> KernelResult:
    """Green kernel G(k): polycircle quadrature of z^{k-1} P(z)^{-1} C."""
    return _build_kernel(P, radii, window, grid, domain, rcond_min)


def resolvent_kernel(
    S: Symbol,
    radii: Sequence[float],
    window: Box,
    grid=None,
    domain: LatticeDomain | None = None,
    rcond_min: float = RCOND_MIN,
) -> KernelResult:
    """Resolvent kernel of a Volterra/Weyl/mixed-axes symbol."""
    return _build_kernel(S, radii, window, grid, domain, rcond_min)


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
    dprime: LatticeDomain | None = None,
    orthant_variant: bool = False,
    rcond_min: float = RCOND_MIN,
) -> SolveResult:
    """u = kernel conv f on the output window, with an error surrogate ledger."""
    f = promote_data(f, S.m)
    if orthant_variant and not S.terms:
        check_initial_conditions(S, f)
    kr = _build_kernel(S, radii, kernel_window, grid, dprime, rcond_min)
    u, conv_ledger = conv_general(
        kr.table, f, out_window, enforce=False, return_ledger=True
    )
    err = conv_ledger if conv_ledger is not None else np.zeros(out_window.shape)
    # propagate kernel aliasing through the convolution with |f|
    err = err.astype(float) + _correlate(
        kr.aliasing, kernel_window.lo, f.norms(), f.support.lo, out_window
    )
    ledger = operator_amplification(S) * float(np.max(err)) + 1e-12
    if f.value_kind == "scalar":  # m = 1: the 1 x 1 kernel acts as a scalar
        u = SequenceTable(u.domain, u.support, u.values.reshape(u.support.shape))
    return SolveResult(u, err, ledger, kr)


def residual(S: Symbol, u: SequenceTable, f: SequenceTable, check_window: Box) -> dict:
    """Max over the window of || LHS(k) - C f(k) || by direct substitution."""
    f = promote_data(f, S.m)
    n = check_window.dim
    pad = S.max_shift()
    for c, a, b, d in zip(check_window.lo, u.support.lo, u.support.hi, check_window.hi):
        if u.envelope is not None and (c - pad < a or d + pad > b):
            raise InsufficientWindow("u window too small for residual shifts")
    parts = [(A, u, j) for j, A in S.pencil]
    for t in S.terms:
        lo = tuple(a + s for a, s in zip(check_window.lo, t.shift))
        hi = tuple(b + s for b, s in zip(check_window.hi, t.shift))
        ext = Box(lo, tuple(h + t.order for h in hi))
        if t.axes is None:
            g = conv_general(t.kernel, u, ext, enforce=False)
        else:
            g = conv_axes(t.kernel, u, t.axes, ext, enforce=False)
        if t.order:
            g = forward_difference(g, t.order, Box(lo, hi))
        parts.append((t.A, g, t.shift))
    acc = np.zeros(check_window.shape, dtype=complex)
    for A, g, shift in parts:
        acc = _add_values(acc, _shifted_apply(A, g, shift, check_window), n)
    diff = _add_values(acc, -_shifted_apply(S.C, f, (0,) * n, check_window), n)
    worst = float(np.max(value_norms(diff, diff.ndim - n)))
    return {"max_residual": worst, "window": (check_window.lo, check_window.hi)}


def _shifted_apply(A, g: SequenceTable, shift, window: Box) -> np.ndarray:
    """A g(k + shift) at every k of the window, as a one-point correlation."""
    A = np.asarray(A, dtype=complex)
    n = window.dim
    return _correlate(
        A.reshape((1,) * n + A.shape),
        tuple(-c for c in shift),
        g.values,
        g.support.lo,
        window,
        A.ndim,
        len(g.vshape),
    )


def _add_values(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """x + y over n lattice axes, value axes right-aligned as for single values."""
    d = max(x.ndim, y.ndim) - n
    x, y = (t.reshape(t.shape[:n] + (1,) * (d + n - t.ndim) + t.shape[n:]) for t in (x, y))
    return x + y


# ---------------------------------------------------------------------------
# Uniqueness probe
# ---------------------------------------------------------------------------


def pencil_roots_1d(P: Symbol) -> np.ndarray:
    """Roots of a 1-D scalar pencil's characteristic polynomial."""
    if P.n != 1 or P.m != 1:
        raise ValueError("root location implemented for 1-D scalar pencils")
    jmin = min(j[0] for j, _ in P.pencil)
    jmax = max(j[0] for j, _ in P.pencil)
    coeffs = np.zeros(jmax - jmin + 1, dtype=complex)
    for j, A in P.pencil:
        coeffs[jmax - j[0]] = complex(A.reshape(()))
    return np.roots(coeffs)


def homogeneous_mode_residual(P: Symbol, lams, window: Box) -> float:
    """Max |sum_j a_j lam^{k+j}| over the window for a scalar pencil root.

    Zero (to rounding) certifies that adding the geometric mode
    prod lam_i^{k_i} to any solution leaves the equation residual unchanged.
    """
    ks = np.ix_(*(np.arange(a, b + 1) for a, b in zip(window.lo, window.hi)))
    acc = np.zeros(window.shape, dtype=complex)
    for j, A in P.pencil:
        term = complex(A.reshape(()))
        for li, ki, ji in zip(lams, ks, j):
            term = term * complex(li) ** (ki + ji)
        acc = acc + term
    return float(np.max(np.abs(acc)))


def uniqueness_probe(
    S: Symbol,
    z_samples: Sequence[Sequence[complex]],
    threshold: float = 1e-10,
) -> dict:
    """sigma_min of the symbol at each sample; injectivity witnessed iff all
    exceed the threshold.  For 1-D scalar pencils the root modes are located
    and their residual-invariance is verified as well."""
    Ms = [symbol_eval(S, z) for z in z_samples]
    sigmas = _sv_extremes(np.array(Ms))[1].tolist() if Ms else []
    witnessed = bool(sigmas) and all(s > threshold for s in sigmas)
    report = {
        "min_sigma": min(sigmas) if sigmas else float("nan"),
        "samples": len(sigmas),
        "threshold": threshold,
        "verdict": "injectivity witnessed on samples" if witnessed else "not witnessed",
    }
    if not S.terms and S.n == 1 and S.m == 1:
        roots = pencil_roots_1d(S)
        window = Box((0,), (16,))
        devs = [
            homogeneous_mode_residual(S, (lam,), window)
            for lam in roots
            if abs(lam) > 1e-10
        ]
        report["root_mode_max_residual"] = max(devs) if devs else 0.0
        report["roots"] = [complex(r) for r in roots]
    return report
