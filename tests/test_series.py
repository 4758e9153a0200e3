"""The power-series Green kernel on certified orthant symbols.

The reference expands z^{-j*} M(z) = sum_k B_k z^{-k} from the symbol's
definition, with every kernel coefficient the true kernel has (also those
past its stored table), and inverts it by the coefficient recursion
H(k) = -B_0^{-1} sum_{0 != j <= k} B_j H(k - j) in 40-digit mpmath
arithmetic; G(k) = H(k - j*) C.  Errors are taken in the Frobenius norm,
which bounds the 2-norm.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zlattice import solver
from zlattice.errors import EvaluatorFailure, SingularSymbol
from zlattice.fixtures import first_order_pencil, scaling_pencil, weyl_fractional_problem
from zlattice.fractional import cesaro_values
from zlattice.lattice import Box, Envelope, SequenceTable, nonneg_orthant
from zlattice.solver import (
    MixedAxesSymbol,
    MixedAxesTerm,
    MultiTermSymbol,
    OperatorPencil,
    VolterraTerm,
    green_function,
)

mp.mp.dps = 40


def geometric_kernel(lams, top):
    """prod_i lam_i^{l_i} on N0^n, stored on 0..top, with its exact envelope."""
    k = np.indices(tuple(t + 1 for t in top))
    vals = np.prod([lam ** k[i] for i, lam in enumerate(lams)], axis=0)
    return SequenceTable(nonneg_orthant(len(lams)), Box((0,) * len(lams), tuple(top)), vals,
                         envelope=Envelope(1.0, tuple(lams)))


def reference_kernel(S, window, values):
    """Exact G on the window; ``values(t, l)`` is the true kernel value of term t at l."""
    n, m = S.n, S.m
    summands = [(None, A, j, 0, None) for j, A in S.pencil]
    summands += [(t, t.A, t.shift, t.order, t.axes) for t in S.terms]
    jstar = tuple(max(s[2][i] + s[3] for s in summands) for i in range(n))
    top = tuple(w - j for w, j in zip(window.hi, jstar))
    B = {}
    for t, A, shift, order, axes in summands:
        ax = list(range(n)) if axes is None else [j - 1 for j in axes]
        for i in range(order + 1):
            c = (-1) ** (order - i) * math.comb(order, i)
            d = [j - s - i for j, s in zip(jstar, shift)]
            ranges = [range(0, top[a] - d[a] + 1) if a in ax and t is not None else range(1)
                      for a in range(n)]
            for l in np.ndindex(*(len(r) for r in ranges)):
                k = tuple(di + li for di, li in zip(d, l))
                if any(kk > tt for kk, tt in zip(k, top)):
                    continue
                v = 1.0 if t is None else values(t, tuple(l[a] for a in ax))
                if v != 0:
                    B[k] = B.get(k, mp.zeros(m, m)) + mp.matrix((c * v * A).tolist())
    Binv = B[(0,) * n] ** -1
    H = {}
    for k in sorted(np.ndindex(*(t + 1 for t in top)), key=sum) if min(top) >= 0 else ():
        acc = mp.eye(m) if k == (0,) * n else mp.zeros(m, m)
        for j, Bj in B.items():
            if j != (0,) * n and all(a <= b for a, b in zip(j, k)):
                acc -= Bj * H[tuple(b - a for a, b in zip(j, k))]
        H[k] = Binv * acc
    C = mp.matrix(S.C.tolist())
    out = {}
    for k in np.ndindex(*window.shape):
        kk = tuple(lo + i for lo, i in zip(window.lo, k))
        h = tuple(a - b for a, b in zip(kk, jstar))
        out[k] = H[h] * C if h in H else mp.zeros(m, m)
    return out


def frobenius_errors(G, ref, shape):
    err = np.zeros(shape)
    for k, R in ref.items():
        err[k] = float(mp.sqrt(sum(abs(mp.mpc(complex(G[k][a, b])) - R[a, b]) ** 2
                                   for a in range(R.rows) for b in range(R.cols))))
    return err


@st.composite
def causal_symbols(draw):
    """(symbol, radii, window, true kernel values): a causal pencil, Volterra,
    Weyl or mixed-axes symbol in 1-2 dimensions with m <= 3."""
    kind = draw(st.sampled_from(("pencil", "volterra", "weyl", "mixed")))
    n = {"weyl": 1, "mixed": 2}.get(kind, draw(st.integers(1, 2)))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = np.eye(m) + 0.2 * rng.normal(size=(m, m))
    small = lambda s: s * rng.normal(size=(m, m)) / m  # noqa: E731
    span = 24 if n == 1 else 5
    window = Box((0,) * n, (span,) * n)
    radii = tuple(float(r) for r in rng.uniform(0.8, 1.5, n))
    stored = {}
    if kind == "pencil":
        jstar = tuple(int(c) for c in rng.integers(0, 3, n))
        terms = {jstar: lead}
        for _ in range(draw(st.integers(1, 3))):
            j = tuple(int(rng.integers(0, c + 1)) for c in jstar)
            if j != jstar:
                terms[j] = small(0.3)
        S = OperatorPencil(n, m, tuple(terms.items()), small(1.0) + np.eye(m))
    elif kind == "volterra":
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            lams = tuple(float(x) for x in rng.uniform(0.1, 0.6, n))
            top = tuple(int(x) for x in rng.integers(1, 2 * span, n))
            a = geometric_kernel(lams, top)
            stored[id(a)] = lams
            terms.append(VolterraTerm(a, tuple(int(x) for x in rng.integers(-1, 1, n)), small(0.3)))
        S = MultiTermSymbol(n, m, lead, tuple(terms), np.eye(m))
    elif kind == "weyl":
        alpha = float(rng.uniform(0.1, 0.9))
        L = int(rng.integers(4, 2 * span))
        S = weyl_fractional_problem(alpha, lead, kernel_len=L)
        radii = (float(rng.uniform(1.2, 2.0)),)
        beta = S.terms[0].kernel
        stored[id(beta)] = ("cesaro", math.ceil(alpha) - alpha)
    else:
        delta = SequenceTable(nonneg_orthant(1), Box((0,), (0,)), np.ones(1))
        terms = [MixedAxesTerm(delta, (1,), lead)]
        for axes in draw(st.lists(st.sampled_from(((1,), (2,), (1, 2), (2, 1))), min_size=1, max_size=2)):
            lams = tuple(float(x) for x in rng.uniform(0.1, 0.6, len(axes)))
            a = geometric_kernel(lams, tuple(int(x) for x in rng.integers(1, 2 * span, len(axes))))
            terms.append(MixedAxesTerm(a, axes, small(0.3)))
        S = MixedAxesSymbol(2, m, tuple(terms), np.eye(m))
        for t in S.terms[1:]:  # sorted axes: the kernel's lams are permuted with them
            k = t.kernel
            stored[id(k)] = tuple(k.values[tuple(1 if j == i else 0 for j in range(k.dim))].real
                                  for i in range(k.dim))

    def values(t, l):
        spec = stored.get(id(t.kernel))
        if spec is None:  # a finitely stored kernel: exactly zero past its table
            return complex(t.kernel.at(l))
        if spec[0] == "cesaro":
            return float(cesaro_values(spec[1], l[0])[l[0]])
        return math.prod(lam ** c for lam, c in zip(spec, l))

    return S, radii, window, values


def contour_calls(monkeypatch):
    """The list that gets one entry per call of the contour quadrature."""
    calls = []
    plain = solver.invert_contour
    monkeypatch.setattr(solver, "invert_contour", lambda *a, **kw: calls.append(1) or plain(*a, **kw))
    return calls


class Uncertified(Exception):
    pass


def refuse(*args, **kwargs):
    raise Uncertified


@given(causal_symbols())
@settings(max_examples=40, deadline=None)
def test_series_kernel_error_is_within_its_ledger(case):
    S, radii, window, values = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "invert_contour", refuse)
        try:
            kr = green_function(S, radii, window)
        except Uncertified:
            assume(False)  # theta(R) >= 1 or a tail that does not converge at R
    ref = reference_kernel(S, window, values)
    err = frobenius_errors(kr.table.values, ref, window.shape)
    assert np.all(err <= kr.aliasing)
    # the contour inverts the same Laurent series (at its default grid): its
    # kernel agrees with the exact one within its own ledger
    kc = green_function(S, radii, window, grid=tuple(2 * s + 16 for s in window.span()))
    assert np.all(frobenius_errors(kc.table.values, ref, window.shape) <= kc.aliasing)


# ROADMAP item 4's table: (lambda, radius, kernel window)
ITEM_4 = ((0.97, 1.0, 200), (0.995, 1.0, 60), (0.9, 0.92, 60), (0.5, 1.0, 60), (0.5, 0.52, 30))


@pytest.mark.parametrize("lam, radius, hi", ITEM_4)
def test_first_order_pencil_error_is_within_a_tight_ledger(monkeypatch, lam, radius, hi):
    calls = contour_calls(monkeypatch)
    kr = green_function(first_order_pencil(lam), (radius,), Box((0,), (hi,)))
    assert not calls
    k = np.arange(hi + 1)
    true = [mp.mpf(lam) ** (int(c) - 1) if c >= 1 else mp.mpf(0) for c in k]
    err = np.array([float(abs(mp.mpc(complex(g)) - t)) for g, t in zip(kr.table.values.reshape(-1), true)])
    ledger = kr.aliasing.reshape(-1)
    assert np.all(err <= ledger) and np.all(ledger <= 1e-10)
    theta = lam / radius
    assert kr.min_rcond == pytest.approx((1 - theta) / (1 + theta), rel=1e-12)
    assert kr.contour_max == pytest.approx(1 / (radius * (1 - theta)), rel=1e-12)
    assert kr.table.envelope.rates == (radius,)


@pytest.mark.parametrize("m, L", [(1, 256), (2, 192)])
def test_weyl_kernels_of_order_1_4_are_certified_by_their_residual(monkeypatch, m, L):
    # the alpha = 1.4 Weyl slots of the benchmark: G(k) = c^(2 - b)(k - 2) A^-1 for the
    # kernel c^b, b = 2 - 1.4, the inverse transform of z^-2 (1 - 1/z)^(b - 2) A^-1
    calls = contour_calls(monkeypatch)
    A = np.eye(m) + 0.3 * np.random.default_rng(m).normal(size=(m, m))
    kr = green_function(weyl_fractional_problem(1.4, A, kernel_len=L), (1.3,), Box((0,), (80,)))
    assert not calls
    a, Ainv = 1 - mp.mpf(math.ceil(1.4) - 1.4), mp.matrix(A.tolist()) ** -1
    ref = {(k,): mp.binomial(k - 2 + a, k - 2) * Ainv if k >= 2 else 0 * Ainv for k in range(81)}
    err = frobenius_errors(kr.table.values, ref, (81,))
    assert np.all(err <= kr.aliasing) and np.all(np.isfinite(kr.aliasing))


def test_contour_runs_for_uncertified_symbols_and_explicit_grids(monkeypatch):
    calls = contour_calls(monkeypatch)
    w = Box((0, 0), (8, 8))
    P = scaling_pencil()  # z1 z2 A - I, A = diag(2, 3): certified at radius 1
    green_function(P, (1.0, 1.0), w)
    assert not calls
    green_function(P, (1.0, 1.0), w, grid=(32, 32))  # the quadrature's own parameter
    assert len(calls) == 1
    green_function(P, (0.6, 0.6), w)  # z1 z2 A - I is singular at z1 z2 = 2 and 3
    assert len(calls) == 2
    S = weyl_fractional_problem(1.4, kernel_len=128)  # certified by its residual
    green_function(S, (1.3,), Box((0,), (40,)))
    assert len(calls) == 2
    green_function(first_order_pencil(0.5), (1.0,), Box((-2,), (8,)))  # not an orthant window
    assert len(calls) == 3
    with pytest.raises(SingularSymbol):  # the pole on the contour: q >= 1
        green_function(first_order_pencil(1.0), (1.0,), Box((0,), (8,)))
    assert len(calls) == 4
    # a singular B_0 (z diag(1, 0) - I / 2 is invertible off |z| = 1/2), and a
    # non-finite B, which the contour then reports at its first node
    P = OperatorPencil(1, 2, (((1,), np.diag([1.0, 0.0])), ((0,), -0.5 * np.eye(2))), np.eye(2))
    green_function(P, (1.0,), Box((0,), (8,)))
    assert len(calls) == 5
    with pytest.raises(EvaluatorFailure):
        green_function(OperatorPencil(1, 1, (((1,), [[1.0]]), ((0,), [[np.nan]])), [[1.0]]),
                       (1.0,), Box((0,), (8,)))
    assert len(calls) == 6
