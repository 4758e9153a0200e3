"""The power-series Green kernel on certified orthant symbols.

The reference expands z^{-j*} M(z) = sum_k B_k z^{-k} from the symbol's
definition, with every kernel coefficient the true kernel has (also those
past its stored table), and inverts it by the coefficient recursion
H(k) = -B_0^{-1} sum_{0 != j <= k} B_j H(k - j) in 40-digit mpmath
arithmetic; G(k) = H(k - j*) C.  Errors are taken in the Frobenius norm,
which bounds the 2-norm.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zlattice import solver
from zlattice.errors import EvaluatorFailure, SingularSymbol
from zlattice.fixtures import first_order_pencil, scaling_pencil, weyl_fractional_problem
from zlattice.fractional import cesaro_values
from zlattice.lattice import Box, Envelope, FullLattice, SequenceTable, emit, nonneg_orthant
from zlattice.problems import problem_from_doc
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


def causal_symbol(kind, n, m, seed, count=1, axes=((1,),)):
    """(symbol, radii, window, true kernel values): a causal pencil, Volterra, Weyl or
    mixed-axes symbol in n = 1-2 dimensions with m <= 3, drawn from the generator
    ``seed``: ``count`` pencil pairs or Volterra terms, and mixed-axes terms on ``axes``."""
    rng = np.random.default_rng(seed)
    lead = np.eye(m) + 0.2 * rng.normal(size=(m, m))
    small = lambda s: s * rng.normal(size=(m, m)) / m  # noqa: E731
    span = 24 if n == 1 else 5
    window = Box((0,) * n, (span,) * n)
    radii = tuple(float(r) for r in rng.uniform(0.8, 1.5, n))
    stored = {}
    if kind == "pencil":
        jstar = tuple(int(c) for c in rng.integers(0, 3, n))
        terms = {jstar: lead}
        for _ in range(count):
            j = tuple(int(rng.integers(0, c + 1)) for c in jstar)
            if j != jstar:
                terms[j] = small(0.3)
        S = OperatorPencil(n, m, tuple(terms.items()), small(1.0) + np.eye(m))
    elif kind == "volterra":
        terms = []
        for _ in range(count):
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
        for ax in axes:
            lams = tuple(float(x) for x in rng.uniform(0.1, 0.6, len(ax)))
            a = geometric_kernel(lams, tuple(int(x) for x in rng.integers(1, 2 * span, len(ax))))
            terms.append(MixedAxesTerm(a, ax, small(0.3)))
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


@st.composite
def causal_symbols(draw):
    """``causal_symbol`` of drawn arguments."""
    kind = draw(st.sampled_from(("pencil", "volterra", "weyl", "mixed")))
    n = {"weyl": 1, "mixed": 2}.get(kind, draw(st.integers(1, 2)))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "mixed":
        axes = draw(st.lists(st.sampled_from(((1,), (2,), (1, 2), (2, 1))), min_size=1, max_size=2))
        return causal_symbol(kind, n, m, seed, axes=axes)
    count = {"pencil": st.integers(1, 3), "volterra": st.integers(1, 2)}.get(kind)
    return causal_symbol(kind, n, m, seed, 1 if count is None else draw(count))


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


def assert_within_ledgers(S, radii, window, values):
    """The series kernel, and the contour's at the window's default grid, agree with
    the exact kernel within their ledgers; Uncertified where the series refuses."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "invert_contour", refuse)
        kr = green_function(S, radii, window)
    ref = reference_kernel(S, window, values)
    err = frobenius_errors(kr.table.values, ref, window.shape)
    assert np.all(err <= kr.aliasing)
    # the contour inverts the same Laurent series (at its default grid): its
    # kernel agrees with the exact one within its own ledger
    kc = green_function(S, radii, window, grid=tuple(2 * s + 16 for s in window.span()))
    assert np.all(frobenius_errors(kc.table.values, ref, window.shape) <= kc.aliasing)


@given(causal_symbols())
@settings(max_examples=40, deadline=None)
def test_series_kernel_error_is_within_its_ledger(case):
    try:
        assert_within_ledgers(*case)
    except Uncertified:
        assume(False)  # theta(R) >= 1 or a tail that does not converge at R


# the property's falsifying examples at hypothesis 6.155.2, each with one Volterra term:
# AEEBQQFBAUEEQQE=, AEEBQQFBAUIAw0EB and AEEBQQFBA0IFzEEB.  Their contour kernels
# were off by up to 21x, 1.85x and 1.14x the fitted envelope's surrogate ledger
@pytest.mark.parametrize("kind, n, m, seed", [
    ("volterra", 1, 1, 4), ("volterra", 1, 1, 195), ("volterra", 1, 3, 1484)])
def test_falsifying_examples_are_within_their_ledgers(kind, n, m, seed):
    assert_within_ledgers(*causal_symbol(kind, n, m, seed))


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


def _negative_jstar_docs():
    """Documents whose largest shift + order is negative on an axis once their zero
    pencil pair (the default B or A0) adds no block."""
    one, kernel = [[[1.0, 0.0]]], emit(geometric_kernel((0.5, 0.5), (4, 4)))
    zn = {"kind": "volterra_zn", "n": 2, "m": 1, "C": one, "data": {"generator": "delta"},
          "terms": [{"kernel": kernel, "shift": [1, -1], "A": one}]}
    weyl = [{"kind": "weyl_1d", "m": 1, "C": one, "data": {"generator": "delta"},
             "terms": [{"kernel": {"cesaro": {"alpha": 0.5, "len": 16}}, "order": 1,
                        "shift": s, "A": one}]} for s in (-2, -20)]  # j* = -1, and past the band
    return {"volterra_zn": (zn, (1.3, 1.3), Box((0, 0), (8, 8))),
            "weyl_1d": (weyl[0], (1.3,), Box((0,), (20,))),
            "weyl_1d far": (weyl[1], (1.3,), Box((0,), (10,)))}


@pytest.mark.parametrize("kind", list(_negative_jstar_docs()))
def test_a_negative_jstar_refuses_the_series(monkeypatch, kind):
    # Hs(k) = H(k - j*) would start off N0^n: the series refuses, and the contour
    # inverts the symbol as it does without the zero pair
    doc, radii, window = _negative_jstar_docs()[kind]
    S = problem_from_doc(doc)[0]
    T = solver.Symbol(S.n, S.m, (), S.terms, S.C)
    assert len(S.pencil) == 1 and not S.pencil[0][1].any() and len(S._blocks) == len(T._blocks)
    calls = contour_calls(monkeypatch)
    a, b = green_function(S, radii, window), green_function(T, radii, window)
    assert len(calls) == 2
    assert np.array_equal(a.table.values, b.table.values) and np.array_equal(a.aliasing, b.aliasing)


@pytest.mark.parametrize("n", [1, 2])
def test_a_pencil_with_negative_jstar_is_inverted_on_the_contour(monkeypatch, n):
    # z1^-1 - z1^-2 / 2 has G(k) = 2^-(k1 + 1) delta(k2 .. kn) for k1 >= -1: on N0^n
    # only the contour holds its entry at k1 = -1
    e = np.eye(n, dtype=int)[0]
    P = OperatorPencil(n, 1, ((tuple(-e), [[1.0]]), (tuple(-2 * e), [[-0.5]])), [[1.0]])
    calls = contour_calls(monkeypatch)
    window = Box((0,) * n, (10,) * n)
    kr = green_function(P, (1.3,) * n, window)
    assert len(calls) == 1
    k = np.indices(window.shape)
    exact = np.where((k[1:] == 0).all(0), 0.5 ** (k[0] + 1), 0.0)
    assert np.all(np.abs(kr.table.values.reshape(window.shape) - exact) <= kr.aliasing)


def test_a_non_causal_kernel_refuses_the_series(monkeypatch):
    # M(z) = 1 + 0.3 F_a(z) with a(k) = 0.5^|k| on -1..4: the kernel's term at k = -1
    # refuses the series, and the contour kernel agrees with a 4096-node quadrature of
    # 1 / M on the unit circle within its ledger
    k = np.arange(-1, 5)
    a = SequenceTable(FullLattice(1), Box((-1,), (4,)), 0.5 ** np.abs(k))
    S = MultiTermSymbol(1, 1, [[1.0]], (VolterraTerm(a, (0,), [[0.3]]),), [[1.0]])
    window = Box((0,), (20,))
    assert solver._operator(S, (1.0,), window) is None
    calls = contour_calls(monkeypatch)
    kr = green_function(S, (1.0,), window)
    assert len(calls) == 1
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    M = 1 + 0.3 * sum(c * z ** -int(j) for j, c in zip(k, a.values))
    exact = np.array([np.mean(z**j / M) for j in range(21)])
    assert np.all(np.abs(kr.table.values.reshape(-1) - exact) <= kr.aliasing.reshape(-1))


def test_radii_inside_a_kernel_rate_refuse_the_series():
    # F_a diverges on |z| = 0.4 < 0.5, the kernel's envelope rate: the series refuses,
    # and the contour, which evaluates F_a on the same circle, reports the failure
    a = geometric_kernel((0.5,), (10,))
    S = MultiTermSymbol(1, 1, [[1.0]], (VolterraTerm(a, (0,), [[0.3]]),), [[1.0]])
    assert solver._operator(S, (0.4,), Box((0,), (20,))) is None
    with pytest.raises(EvaluatorFailure, match="outside convergence region"):
        green_function(S, (0.4,), Box((0,), (20,)))
    assert solver._operator(S, (0.6,), Box((0,), (20,))) is not None


@pytest.mark.parametrize("m", [1, 2])
def test_a_contour_kernel_at_a_tiny_radius_has_a_ledger(m):
    # (z - 1/2)^-1 = -2 sum_j (2z)^j inside |z| = 1/2: on 0:8, G(0) = -2 I and G(k) = 0
    # for k > 0.  At radius 1e-300 the fitted envelope's weights r^k underflow to 0
    # where the kernel is 0, which made its constant, and every ledger, nan
    P = OperatorPencil(1, m, (((1,), np.eye(m)), ((0,), -0.5 * np.eye(m))), np.eye(m))
    kr = green_function(P, (1e-300,), Box((0,), (8,)))
    exact = np.zeros((9, m, m))
    exact[0] = -2 * np.eye(m)
    assert np.all(np.abs(kr.table.values - exact) <= kr.aliasing[:, None, None])


def test_a_dense_2d_kernel_is_certified_in_little_memory(monkeypatch):
    # a = 0.5^k1 0.4^k2 stored densely on 0:32^2 gives J = 1057 nonzero B_j on the box's
    # P = 1089 points: a residual gathered over every point and every B_j holds P J m^2
    # complex values, and its peak read 240 MB; one correlation needs a few MB
    m, W = 2, 32
    k = np.indices((W + 1, W + 1))
    a = SequenceTable(nonneg_orthant(2), Box((0, 0), (W, W)), 0.5 ** k[0] * 0.4 ** k[1])
    A = 0.3 * np.random.default_rng(0).normal(size=(m, m)) / m
    S = MultiTermSymbol(2, m, np.eye(m), (VolterraTerm(a, (0, -1), A),), np.eye(m))
    calls = contour_calls(monkeypatch)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        kr = green_function(S, (1.0, 1.0), Box((0, 0), (W, W)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert not calls and np.all(kr.aliasing < 1e-10)
    assert peak < 100 * 2**20


# ---------------------------------------------------------------------------
# the blocked 1-D recursion
# ---------------------------------------------------------------------------


def per_coefficient(Binv, BJ, P, j0):
    """Hs(0..P - 1) from B Hs = delta_{j0}, one coefficient at a time."""
    m, J = len(Binv), BJ.shape[1] // len(Binv)
    Bs = BJ.reshape(m, J, m).transpose(1, 0, 2)
    Hs = np.zeros((P, m, m), dtype=complex)
    Hs[j0] = Binv
    for k in range(j0 + 1, P):
        Hs[k] = -Binv @ sum(Bs[j] @ Hs[k - j] for j in range(1, min(J, k + 1)))
    return Hs


def applied(BJ, Hs, dtype=complex):
    """(B Hs)(k) = sum_j B_j Hs(k - j) on 0..P - 1, summed in ``dtype``."""
    m, P = len(BJ), len(Hs)
    Bs, H = BJ.reshape(m, -1, m).transpose(1, 0, 2).astype(dtype), Hs.astype(dtype)
    out = np.zeros((P, m, m), dtype=dtype)
    for j in range(min(len(Bs), P)):
        out[j:] += np.einsum("ip,kpl->kil", Bs[j], H[: P - j])
    return out


def fro_norms(X):
    return np.sqrt(np.sum(np.abs(X.astype(complex)) ** 2, axis=(-2, -1)))


@st.composite
def recursions(draw):
    """(Binv, BJ, P, j0): a random decaying band, or the growing Weyl symbol
    (1 - 1/z)^alpha A of order alpha in [1, 1.9], whose kernel c^alpha A^-1 grows."""
    m = draw(st.integers(1, 3))
    j0 = draw(st.integers(0, 2))
    nk = draw(st.integers(1, 200))  # K - j* + 1 coefficients
    J = 1 + draw(st.integers(1, nk))  # the band B_0 .. B_{J-1}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.eye(m) + 0.3 * rng.normal(size=(m, m)) + 0.2j * rng.normal(size=(m, m))
    if draw(st.booleans()):
        k = np.arange(1.0, J)
        c = np.cumprod(np.concatenate(([1.0], (k - 1 - draw(st.floats(1.0, 1.9))) / k)))
        Bs = c[:, None, None] * A
    else:
        Bs = rng.normal(size=(J, m, m)) / (1 + np.arange(J))[:, None, None] ** 2 / m + 0j
        Bs[0] = A
    BJ = Bs.transpose(1, 0, 2).reshape(m, J * m).astype(complex)
    return np.linalg.inv(Bs[0]).astype(complex), BJ, j0 + nk, j0


@given(recursions())
@settings(max_examples=150, deadline=None)
def test_blocked_recursion_is_the_per_coefficient_one_to_rounding(case):
    Binv, BJ, P, j0 = case
    m, J = len(Binv), BJ.shape[1] // len(Binv)
    Hs, r = solver._series_1d(Binv, BJ, P, j0)
    ref = per_coefficient(Binv, BJ, P, j0)
    bn = fro_norms(BJ.reshape(m, J, m).transpose(1, 0, 2))
    hn = fro_norms(Hs)
    conv = lambda a, b: np.convolve(a, b)[:P]  # noqa: E731
    # r is B Hs on 0..P - 1 within the rounding the certificate allows it
    g = 1.01 * 2.0**-53 * (m * np.count_nonzero(bn) + 4)
    exact = applied(BJ, Hs, np.clongdouble)
    assert np.all(fro_norms(r - exact) <= g * conv(bn, hn) * (1 + 1e-9))
    # both recursions solve B Hs = delta_{j0} to rounding, so they differ by at most
    # B^-1 * (their two residuals), to first order, where B^-1(k) = Hs(k + j0)
    delta = np.zeros((P, m, m))
    delta[j0] = np.eye(m)
    res = sum(fro_norms(applied(BJ, X, np.clongdouble) - delta) for X in (Hs, ref))
    assert np.all(fro_norms(Hs - ref) <= 2 * conv(hn[j0:], res + 2 * g * conv(bn, hn)) + 1e-300)


@pytest.mark.parametrize("m", [1, 2])
def test_long_weyl_kernel_is_within_its_ledger_of_the_closed_form(monkeypatch, m):
    # order 0.5 on 0:1280 (blocks of 61 coefficients): G(k) = c^0.5(k - 1) A^-1,
    # the inverse transform of z^-1 (1 - 1/z)^-0.5 A^-1
    calls = contour_calls(monkeypatch)
    A = np.eye(m) + 0.3 * np.random.default_rng(m).normal(size=(m, m))
    S = weyl_fractional_problem(0.5, A, kernel_len=1400)
    kr = green_function(S, (1.3,), Box((0,), (1280,)))
    assert not calls
    c, Ainv = [mp.mpf(0), mp.mpf(1)], mp.matrix(A.tolist()) ** -1
    for k in range(1, 1280):
        c.append(c[-1] * (k - mp.mpf(0.5)) / k)
    err = frobenius_errors(kr.table.values, {(k,): c[k] * Ainv for k in range(1281)}, (1281,))
    assert np.all(err <= kr.aliasing) and np.all(np.isfinite(kr.aliasing))
