
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zlattice import solver, ztransform
from zlattice.errors import (
    DimensionMismatch,
    EvaluatorFailure,
    InitialConditionViolated,
    SingularSymbol,
    ZeroCoordinate,
)
from zlattice.fixtures import (
    first_order_pencil,
    gaussian_table,
    scaling_pencil,
    two_term_weyl_symbol,
    weyl_fractional_problem,
)
from zlattice.fractional import cesaro, cesaro_values
from zlattice.lattice import (
    Box,
    Envelope,
    FiniteSet,
    FullLattice,
    Orthant,
    SequenceTable,
    beta_shift,
    nonneg_orthant,
    _sv_extremes,
    value_norm,
    value_norms,
    value_shape,
)
from zlattice.solver import (
    MixedAxesSymbol,
    MixedAxesTerm,
    MultiTermSymbol,
    OperatorPencil,
    Symbol,
    Term,
    VolterraTerm,
    WeylFractionalSymbol,
    WeylTerm,
    check_initial_conditions,
    green_function,
    homogeneous_mode_residual,
    pencil_eval,
    pencil_roots_1d,
    promote_data,
    resolvent_kernel,
    residual,
    solve,
    symbol_eval,
    uniqueness_probe,
)
from zlattice.ztransform import eval_forward


def scalar(v):
    return complex(np.asarray(v).reshape(()))


# ---------------------------------------------------------------------------
# symbol evaluation
# ---------------------------------------------------------------------------


def test_pencil_constant():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    P = OperatorPencil(1, 2, (((0,), A),), np.eye(2))
    for z in [(1.0,), (2.0 + 1.0j,)]:
        assert np.allclose(pencil_eval(P, z), A)


def test_pencil_linear():
    lam = 0.4
    P = OperatorPencil(1, 2, (((1,), np.eye(2)), ((0,), -lam * np.eye(2))), np.eye(2))
    z = 1.7 - 0.2j
    assert np.allclose(pencil_eval(P, (z,)), (z - lam) * np.eye(2))


def test_pencil_random_matches_loop():
    rng = np.random.default_rng(1)
    terms = tuple(
        ((int(j1), int(j2)), rng.normal(size=(2, 2)))
        for (j1, j2) in [(-1, 0), (0, 2), (1, 1)]
    )
    P = OperatorPencil(2, 2, terms, np.eye(2))
    z = (1.3 + 0.5j, 0.8 - 0.1j)
    expect = sum(z[0] ** j[0] * z[1] ** j[1] * A for j, A in terms)
    assert np.allclose(pencil_eval(P, z), expect)


def test_pencil_zero_coordinate():
    P = OperatorPencil(1, 1, (((-1,), np.eye(1)),), np.eye(1))
    with pytest.raises(ZeroCoordinate):
        pencil_eval(P, (0.0,))


def test_kernel_term_with_a_negative_shift_at_a_zero_coordinate():
    # z^-5 F_a(z) with a on -3:-1 has the powers z^-2 .. z^-4: no value at z = 0
    a = SequenceTable(FullLattice(1), Box((-3,), (-1,)), np.array([1.0, 2.0, 3.0]))
    S = WeylFractionalSymbol(1, (WeylTerm(a, 0, -5, np.eye(1)),), np.eye(1), 0, np.eye(1))
    with pytest.raises(ZeroCoordinate):
        symbol_eval(S, (0.0,))
    assert symbol_eval(S, (0.5,))[0, 0] == 69.0


def test_symbol_delta_kernel_reduces_to_matrix():
    A = np.array([[3.0]])
    S = MultiTermSymbol(
        1, 1, np.zeros((1, 1)),
        (VolterraTerm(cesaro(0.0, 4), (0,), A),),
        np.eye(1),
    )
    assert np.allclose(symbol_eval(S, (1.5,)), A)


def test_matrix_kernel_symbol_is_A_times_kernel_transform():
    # the equation A (a * u)(k) = f(k) has the symbol A F_a(z), which for a
    # matrix kernel differs from the entrywise product F_a(z) o A
    K = np.array([[1.0, 2.0], [0.0, 1.0]])
    A = np.array([[1.0, 0.0], [3.0, 1.0]])
    kernel = SequenceTable(nonneg_orthant(1), Box((0,), (0,)), K, "matrix", 2)
    S = Symbol(1, 2, (), (Term(kernel, A, (0,)),), np.eye(2))
    assert np.allclose(symbol_eval(S, (1.5,)), [[1.0, 2.0], [3.0, 7.0]])
    f = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), np.arange(12.0).reshape(6, 2), "vector", 2
    )
    sol = solve(S, f, (1.0,), Box((0,), (8,)), Box((0,), (10,)))
    rep = residual(S, sol.u, f, Box((0,), (5,)))
    assert rep["max_residual"] <= sol.ledger
    # on an open mesh: A F_a(z) at every node, as the per-node matrix product
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(3, 3, 2, 2))
    kernel = SequenceTable(FullLattice(2), Box((-1, 0), (1, 2)), vals, "matrix", 2)
    S = Symbol(2, 2, (), (Term(kernel, A, (0, 0)),), np.eye(2))
    nodes = [np.array([1.3, 1.5j, -0.8 + 0.4j]), np.array([0.7j, 1.2])]
    ref = [[A @ eval_forward(kernel, (a, b)) for b in nodes[1]] for a in nodes[0]]
    np.testing.assert_allclose(symbol_eval(S, np.ix_(*nodes)), np.array(ref), rtol=1e-12)


def test_weyl_symbol_delta_is_difference():
    # m=1, a=c^0, no zero-order part: symbol (z-1) A
    A = np.array([[2.0]])
    S = WeylFractionalSymbol(1, (WeylTerm(cesaro(0.0, 4), 1, 0, A),), np.zeros((1, 1)), 0, np.eye(1))
    z = 1.8 + 0.3j
    assert np.allclose(symbol_eval(S, (z,)), (z - 1.0) * A)


def test_weyl_symbol_two_term_shape():
    # coefficientwise: (z^k2 - 2 z^(k2+1) + z^(k2+2)) Fa2 A2
    #                + (z^(k1+1) - z^k1) Fa1 A1 + z^k0 A0
    k0, k1, k2 = 3, 1, 2
    S = two_term_weyl_symbol(k0, k1, k2)
    (t2, t1) = S.terms
    z = 1.6 - 0.4j
    fa1 = scalar(eval_forward(t1.kernel, (z,)))
    fa2 = scalar(eval_forward(t2.kernel, (z,)))
    expect = (
        (z**k2 - 2 * z ** (k2 + 1) + z ** (k2 + 2)) * fa2 * scalar(t2.A)
        + (z ** (k1 + 1) - z**k1) * fa1 * scalar(t1.A)
        + z**k0
    )
    assert scalar(symbol_eval(S, (z,))) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# symbol evaluation on a mesh, against the per-point loop it replaced
# ---------------------------------------------------------------------------


def ref_zpow(z, j):
    w = 1.0 + 0j
    for zi, ji in zip(z, j):
        if zi == 0:
            if ji < 0:
                raise ZeroCoordinate("negative power of zero coordinate")
            if ji > 0:
                return 0.0 + 0j
            continue
        w *= zi**ji
    return w


def ref_prefactor(z, t):
    if not t.order:
        return ref_zpow(z, t.shift)
    return sum(
        (-1) ** (t.order - j) * math.comb(t.order, j) * z[0] ** (t.shift[0] + j)
        for j in range(t.order + 1)
    )


def ref_symbol_eval(S, z):
    out = np.zeros((S.m, S.m), dtype=complex)
    for j, A in S.pencil:
        out += ref_zpow(z, j) * A
    for t in S.terms:
        zsub = z if t.axes is None else tuple(z[j - 1] for j in t.axes)
        out += ref_prefactor(z, t) * eval_forward(t.kernel, zsub) * t.A
    return out


@st.composite
def kernels(draw, n):
    """A Cesaro kernel (n = 1) or a random table with negative support indices."""
    if n == 1 and draw(st.booleans()):
        return cesaro(draw(st.sampled_from((0.3, 0.5, 1.4))), draw(st.integers(0, 12)))
    lo = tuple(draw(st.integers(-2, 1)) for _ in range(n))
    hi = tuple(a + draw(st.integers(0, 3)) for a in lo)
    env = Envelope(1.0, ((2.0, 0.5),) * n) if draw(st.booleans()) else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=Box(lo, hi).shape) + 1j * rng.normal(size=Box(lo, hi).shape)
    return SequenceTable(FullLattice(n), Box(lo, hi), vals, envelope=env)


@st.composite
def symbols(draw, kind, m):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mat():
        return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))

    if kind == "pencil":
        n = draw(st.integers(1, 3))
        js = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n), min_size=1, max_size=4, unique=True))
        return OperatorPencil(n, m, tuple((j, mat()) for j in js), np.eye(m))
    if kind == "weyl":
        terms = tuple(
            WeylTerm(draw(kernels(1)), draw(st.integers(0, 2)), draw(st.integers(-1, 2)), mat())
            for _ in range(draw(st.integers(1, 2)))
        )
        return WeylFractionalSymbol(m, terms, mat(), draw(st.integers(-1, 2)), np.eye(m))
    n = draw(st.integers(2, 3))
    # including axis subsets listed out of order: F_a(z_2, z_1)
    subsets = [
        a for a in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 1), (3, 1, 2))
        if max(a) <= n
    ]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        axes = draw(st.sampled_from(subsets))
        terms.append(MixedAxesTerm(draw(kernels(len(axes))), axes, mat()))
    return MixedAxesSymbol(n, m, tuple(terms), np.eye(m))


@given(st.data(), st.sampled_from(("pencil", "weyl", "mixed")), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_symbol_eval_mesh_matches_per_point_reference(data, kind, m):
    S = data.draw(symbols(kind, m))
    nodes = []
    for _ in range(S.n):
        size = data.draw(st.integers(1, 3))
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * size, max_size=2 * size)))
        nodes.append((1.2 + 0.7 * u[:size]) * np.exp(2j * np.pi * u[size:]))
    grid = tuple(len(a) for a in nodes)
    M = symbol_eval(S, np.ix_(*nodes))
    ref = np.empty(grid + (m, m), dtype=complex)
    for t in np.ndindex(*grid):
        ref[t] = ref_symbol_eval(S, tuple(complex(a[i]) for a, i in zip(nodes, t)))
    assert M.shape == ref.shape
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_symbol_eval_mesh_with_axes_listed_out_of_order():
    # the kernel's first axis runs along z_2: F_a(z_2, z_1)
    rng = np.random.default_rng(5)
    kernel = SequenceTable(FullLattice(2), Box((-1, 0), (1, 2)), rng.normal(size=(3, 3)))
    S = MixedAxesSymbol(2, 1, (MixedAxesTerm(kernel, (2, 1), np.eye(1)),), np.eye(1))
    nodes = [np.array([1.3, 1.5j]), np.array([0.7j, 1.2, -0.9])]
    M = symbol_eval(S, np.ix_(*nodes))
    ref = [[ref_symbol_eval(S, (a, b)) for b in nodes[1]] for a in nodes[0]]
    np.testing.assert_allclose(M, np.array(ref), rtol=1e-12)


def test_singular_pencil_names_the_first_row_major_node():
    # P(z) = z1 z2 diag(1, 2) + I is singular where z1 z2 = -1, first at
    # node (0, 4) of the 8 x 8 grid on the unit torus
    P = OperatorPencil(2, 2, (((1, 1), np.diag([1.0, 2.0])), ((0, 0), np.eye(2))), np.eye(2))
    grid = (8, 8)
    nodes = [np.exp(2j * np.pi * np.arange(N) / N) for N in grid]
    expect = None
    for t in np.ndindex(*grid):  # the per-node loop, in row-major order
        z = tuple(nodes[i][ti] for i, ti in enumerate(t))
        sv = np.linalg.svd(ref_symbol_eval(P, z), compute_uv=False)
        if sv[-1] / sv[0] < 1e-12:
            expect = tuple(np.round(np.asarray(z), 12))
            break
    assert expect is not None
    with pytest.raises(SingularSymbol) as exc:
        green_function(P, (1.0, 1.0), Box((0, 0), (3, 3)), grid=grid)
    assert exc.value.node == expect
    assert exc.value.node == (1.0 + 0j, -1.0 + 0j)


def test_residual_with_axes_listed_out_of_order_matches_the_transposed_kernel():
    # a 2-D kernel on axes (2, 1) is the transposed kernel on axes (1, 2)
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    a = SequenceTable(nonneg_orthant(2), Box((0, 0), (2, 3)), vals)
    at = SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 2)), vals.T)
    delta = cesaro(0.0, 0)
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    S21, S12 = (
        MixedAxesSymbol(2, 2, (MixedAxesTerm(delta, (1,), np.eye(2)), MixedAxesTerm(k, ax, A)), np.eye(2))
        for k, ax in ((a, (2, 1)), (at, (1, 2)))
    )
    u = SequenceTable(FullLattice(2), Box((-2, -1), (6, 7)), rng.normal(size=(9, 9, 2)), "vector", 2)
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 3)), rng.normal(size=(4, 4, 2)), "vector", 2)
    w = Box((0, 0), (4, 5))
    assert S21.terms[1].axes == (1, 2)
    assert residual(S21, u, f, w) == residual(S12, u, f, w)


# ---------------------------------------------------------------------------
# closed-form 1 x 1 and 2 x 2 linear algebra against LAPACK
# ---------------------------------------------------------------------------


def _unitary(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q


@st.composite
def small_stacks(draw):
    """Stacks of 1 x 1 or 2 x 2 complex matrices: random, zero, rank-1 and
    near-singular (rcond down to 1e-15), entries scaled by 1e-300 .. 1e300."""
    m = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("random", "zero", "rank1", "near")))
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        if kind == "random":
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        elif kind == "zero":
            A = np.zeros((m, m), dtype=complex)
        else:
            rc = 0.0 if kind == "rank1" else 10.0 ** -draw(st.floats(0.0, 15.0))
            A = _unitary(rng, m) @ np.diag([1.0, rc][:m]) @ _unitary(rng, m).conj().T
        stack.append(scale * A)
    return np.array(stack)


def _pow2_scale(M):
    """Exact power-of-two factor per matrix that brings its largest |entry|
    into [0.5, 1), so that LAPACK references run away from over/underflow."""
    return 2.0 ** -np.frexp(np.max(np.abs(M), axis=(-2, -1)))[1].astype(float)


@given(small_stacks())
@settings(max_examples=300, deadline=None)
def test_closed_form_singular_values_match_svd(M):
    p = _pow2_scale(M)
    ref = np.linalg.svd(M * p[:, None, None], compute_uv=False)
    smax, smin = _sv_extremes(M)
    smax, smin = smax * p, smin * p
    assert np.all(np.abs(smax - ref[:, 0]) <= 1e-13 * ref[:, 0])
    assert np.all(np.abs(smin - ref[:, -1]) <= 1e-13 * ref[:, 0])
    live = ref[:, 0] > 0
    rcond = smin[live] / smax[live]
    assert np.all(np.abs(rcond - ref[live, -1] / ref[live, 0]) <= 1e-13)
    assert np.all(np.abs(value_norms(M, 2) * p - ref[:, 0]) <= 1e-13 * ref[:, 0])
    for Mi, pi, ri in zip(M, p, ref[:, 0]):
        assert abs(value_norm(Mi) * pi - ri) <= 1e-13 * ri


@pytest.mark.parametrize("m", [1, 2])
def test_a_kernel_near_the_bottom_of_the_normal_range_scales_back(m):
    # scaled by 1e-300, every sample of M(z) lies near the bottom of the normal
    # range and its inverse near the top; the kernel scales by 1e300
    A = np.array([[1.0, 0.5], [0.5, 1.0]])[:m, :m]
    terms = (((1,), A), ((0,), -0.1 * np.eye(m)))
    ref = green_function(OperatorPencil(1, m, terms, np.eye(m)), (1.0,), Box((-4,), (12,)))
    tiny = OperatorPencil(1, m, tuple((j, 1e-300 * B) for j, B in terms), np.eye(m))
    got = green_function(tiny, (1.0,), Box((-4,), (12,)))
    scale = 1e300 * np.max(np.abs(ref.table.values))
    assert np.max(np.abs(got.table.values - 1e300 * ref.table.values)) <= 1e-12 * scale


def _inject(monkeypatch, bad):
    """Make solver.symbol_eval return the given values at the given grid nodes."""
    plain = solver.symbol_eval

    def patched(S, z):
        M = plain(S, z)
        for t, v in bad.items():
            M[t] = v
        return M

    monkeypatch.setattr(solver, "symbol_eval", patched)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_symbol_node_is_an_evaluator_failure(monkeypatch, m, value):
    # an exactly singular node comes first in row-major order; the non-finite
    # node still wins, and a 1 x 1 inf (1 / inf = 0) is not passed on as 0
    P = OperatorPencil(2, m, (((1, 0), 0.5 * np.eye(m)), ((0, 0), np.eye(m))), np.eye(m))
    M_bad = np.eye(m, dtype=complex)
    M_bad[0, 0] = value
    _inject(monkeypatch, {(0, 1): np.zeros((m, m)), (2, 3): M_bad})
    with pytest.raises(EvaluatorFailure) as exc:
        green_function(P, (1.0, 1.0), Box((0, 0), (3, 3)), grid=(8, 8))
    assert exc.value.node == (2, 3)
    assert "non-finite symbol value" in str(exc.value)


@pytest.mark.parametrize("m", [1, 2])
def test_small_symbols_invert_without_lapack(monkeypatch, m):
    # u(k+1) - J u(k) = f has Green kernel J^(k-1) for k >= 1; m <= 2 takes
    # the closed forms for the rcond gate and the contour norms, m = 1 also
    # for the inverse
    J = np.array([[0.5, 0.3], [0.0, 0.5]])[:m, :m]
    P = OperatorPencil(1, m, (((1,), np.eye(m)), ((0,), -J)), np.eye(m))
    ref = [np.linalg.matrix_power(J, k - 1) if k >= 1 else np.zeros((m, m)) for k in range(-2, 21)]

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called where a closed form serves")

    monkeypatch.setattr(np.linalg, "svd", lapack)
    if m == 1:
        monkeypatch.setattr(np.linalg, "inv", lapack)
    res = green_function(P, (1.0,), Box((-2,), (20,)), grid=(64,))
    np.testing.assert_allclose(res.table.values, np.array(ref), atol=1e-12)
    assert 0 < res.min_rcond <= 1


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_green_first_order_geometric():
    lam = 0.35
    P = first_order_pencil(lam)
    kr = green_function(P, (1.0,), Box((-3,), (16,)))
    for k in range(-3, 17):
        expect = lam ** (k - 1) if k >= 1 else 0.0
        assert abs(scalar(kr.table.at((k,))) - expect) < 1e-12


def test_green_constant_pencil():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    C = np.array([[1.0, 0.0], [0.0, 2.0]])
    P = OperatorPencil(1, 2, (((0,), A),), C)
    kr = green_function(P, (1.0,), Box((-2,), (4,)))
    for k in range(-2, 5):
        expect = np.linalg.solve(A, C) if k == 0 else np.zeros((2, 2))
        assert np.max(np.abs(np.asarray(kr.table.at((k,))) - expect)) < 1e-12


def test_uncertified_kernel_applies_c_within_the_cauchy_bound(monkeypatch):
    # u(k+1) - A u(k) = C f on a two-sided window: the contour's kernel is A^(k-1) C,
    # and ||G(k)|| <= contour_max R^k at every entry
    A, C = np.array([[0.3, 0.1], [0.05, 0.2]]), np.array([[1.0, 2.0], [0.5, -1.0]])
    P = OperatorPencil(1, 2, (((1,), np.eye(2)), ((0,), -A)), C)
    nodes, plain = [], solver.symbol_eval

    def spy(S, z):
        nodes.append(z)
        return plain(S, z)

    monkeypatch.setattr(solver, "symbol_eval", spy)
    kr = green_function(P, (1.0,), Box((-5,), (30,)))
    ref = [np.linalg.matrix_power(A, k - 1) @ C if k >= 1 else np.zeros((2, 2)) for k in range(-5, 31)]
    assert np.max(np.abs(kr.table.values - np.array(ref))) <= 1e-12
    (z,) = nodes
    x = np.linalg.solve(plain(P, z), np.broadcast_to(C, (len(z[0]), 2, 2)))
    assert kr.contour_max >= np.max(np.linalg.norm(x, 2, axis=(-2, -1)))
    norms = np.linalg.norm(kr.table.values, 2, axis=(-2, -1))
    assert np.all(norms <= kr.contour_max)  # contour_max R^k, at R = 1


@pytest.mark.parametrize("lo", [0, -3])
def test_a_right_hand_side_factor_near_the_float_range_gives_no_nan_ledger(lo):
    # ||C|| = 2e308 overflows; the kernel A^-1 (0.1 A^-1)^(k-1) C stays finite,
    # and G(0) = 0 below j* = 1 keeps ledger 0 on a window from 0
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    P = OperatorPencil(1, 2, (((1,), A), ((0,), -0.1 * np.eye(2))), 1e308 * np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kr = green_function(P, (1.0,), Box((lo,), (8,)))
    assert np.isfinite(kr.table.values).all()
    assert not np.isnan(kr.aliasing).any() and (kr.aliasing >= 0).all()
    assert lo < 0 or kr.aliasing[0] == 0


def series_division_oracle(coeffs, C, K):
    """Power-series inverse of sum_t B_t w^t applied to C, w = 1/z."""
    B0 = coeffs[0]
    Q = [np.linalg.solve(B0, C)]
    for s in range(1, K + 1):
        acc = np.zeros_like(C)
        for t in range(1, min(s, len(coeffs) - 1) + 1):
            acc = acc + coeffs[t] @ Q[s - t]
        Q.append(-np.linalg.solve(B0, acc))
    return Q


def test_green_second_order_series_oracle():
    rng = np.random.default_rng(3)
    d = 2
    A = [0.2 * rng.normal(size=(2, 2)) for _ in range(d)] + [np.eye(2)]
    C = np.eye(2)
    P = OperatorPencil(1, 2, tuple(((j,), A[j]) for j in range(d + 1)), C)
    kr = green_function(P, (1.0,), Box((0,), (20,)))
    # G(k) for k >= d equals Q_{k-d} of the division by B_t = A_{d-t}
    Q = series_division_oracle([A[d - t] for t in range(d + 1)], C, 20)
    for k in range(d, 21):
        assert np.max(np.abs(np.asarray(kr.table.at((k,))) - Q[k - d])) < 1e-10


def test_singular_symbol_aborts():
    # pole exactly on the contour: z - 1 at radius 1
    P = first_order_pencil(1.0)
    with pytest.raises(SingularSymbol):
        green_function(P, (1.0,), Box((0,), (8,)))


def test_resolvent_constant_symbol():
    B = np.array([[2.0, 0.0], [1.0, 1.0]])
    S = MultiTermSymbol(1, 2, B, (), np.eye(2))
    kr = resolvent_kernel(S, (1.0,), Box((-2,), (4,)))
    for k in range(-2, 5):
        expect = np.linalg.inv(B) if k == 0 else np.zeros((2, 2))
        assert np.max(np.abs(np.asarray(kr.table.at((k,))) - expect)) < 1e-12


def test_resolvent_weyl_half_series_oracle():
    # [(z-1) F_a(z)]^-1 expanded in powers of 1/z by series division
    S = weyl_fractional_problem(0.5, kernel_len=200)
    kr = resolvent_kernel(S, (1.3,), Box((0,), (24,)), grid=(128,))
    a = cesaro_values(0.5, 60)
    # D(w) = (1-w) A(w), R(k) = E(k-1) where D E = 1
    d = np.concatenate([[a[0]], a[1:61] - a[:60]])
    E = np.zeros(40)
    E[0] = 1.0 / d[0]
    for s in range(1, 40):
        E[s] = -np.dot(d[1 : s + 1], E[s - 1 :: -1][: min(s, 60)]) / d[0]
    for k in range(1, 24):
        assert scalar(kr.table.at((k,))) == pytest.approx(E[k - 1], abs=1e-9)
    assert abs(scalar(kr.table.at((0,)))) < 1e-9


def test_mixed_axes_single_delta_matches_pencil():
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    C = np.eye(2)
    S = MixedAxesSymbol(2, 2, (MixedAxesTerm(cesaro(0.0, 2), (1,), A),), C)
    P = OperatorPencil(2, 2, (((0, 0), A),), C)
    w = Box((0, 0), (3, 3))
    a = resolvent_kernel(S, (1.2, 1.2), w)
    b = green_function(P, (1.2, 1.2), w)
    assert np.max(np.abs(a.table.values - b.table.values)) < 1e-12


# ---------------------------------------------------------------------------
# solve / residual
# ---------------------------------------------------------------------------


def test_solve_first_order_delta():
    lam = 0.5
    P = first_order_pencil(lam)
    f = SequenceTable.delta(1)
    sol = solve(P, f, (1.0,), Box((0,), (40,)), Box((-2,), (32,)))
    for k in range(-2, 12):
        expect = lam ** (k - 1) if k >= 1 else 0.0
        assert abs(scalar(sol.u.at((k,))) - expect) < 1e-10


def test_scalar_problem_returns_scalar_u():
    f = SequenceTable.delta(1)
    P = first_order_pencil(0.5)
    sol = solve(P, f, (1.0,), Box((0,), (40,)), Box((0,), (30,)))
    assert sol.u.value_kind == "scalar" and sol.u.values.shape == (31,)
    assert sol.u.at((5,)) == pytest.approx(0.5**4, abs=1e-10)
    assert residual(P, sol.u, f, Box((1,), (28,)))["max_residual"] < 1e-8
    S = weyl_fractional_problem(0.5, kernel_len=64)
    sol = solve(S, f, (1.3,), Box((0,), (40,)), Box((0,), (24,)))
    assert sol.u.value_kind == "scalar"
    # vector data keeps its kind
    fv = SequenceTable.delta(1, value_kind="vector", m=1)
    assert solve(P, fv, (1.0,), Box((0,), (40,)), Box((0,), (8,))).u.value_kind == "vector"


def test_symbol_mixes_pencil_and_axes_terms():
    # A1 u(k1+1, k2) + A (a *^{2} u)(k) in one symbol: the parts add
    rng = np.random.default_rng(5)
    A1, A = rng.normal(size=(2, 2, 2))
    a = cesaro(0.5, 6)
    S = Symbol(2, 2, (((1, 0), A1),), (Term(a, A, (0, 0), (2,)),), np.eye(2))
    z = (1.3 + 0.2j, 0.9 - 0.7j)
    expect = z[0] * A1 + scalar(eval_forward(a, (z[1],))) * A
    assert np.allclose(symbol_eval(S, z), expect, rtol=1e-13, atol=0)
    assert S.max_shift() == 1


def test_symbol_rejects_malformed_terms():
    a = cesaro(0.5, 6)
    with pytest.raises(ValueError):
        Symbol(1, 1, (), (), np.eye(1))
    with pytest.raises(DimensionMismatch):
        Symbol(2, 1, (), (Term(a, np.eye(1), (0,)),), np.eye(1))
    with pytest.raises(DimensionMismatch):
        Symbol(2, 1, (), (Term(a, np.eye(1), (0, 0), order=1),), np.eye(1))
    with pytest.raises(DimensionMismatch):
        Term(a, np.eye(1), (0, 0), (1, 2))
    # a 1-D kernel on all axes of Z^2, a vector kernel in C^3 against m = 2 and
    # a negative difference order raise where the symbol is built
    with pytest.raises(DimensionMismatch):
        Symbol(2, 1, (((0, 0), np.eye(1)),), (Term(a, np.eye(1), (0, 0)),), np.eye(1))
    v = SequenceTable(nonneg_orthant(1), Box((0,), (2,)), np.ones((3, 3)), "vector", 3)
    with pytest.raises(DimensionMismatch):
        Symbol(1, 2, (), (Term(v, np.eye(2), (0,)),), np.eye(2))
    with pytest.raises(ValueError):
        WeylTerm(a, -1, 0, np.eye(1))


def test_solve_zero_data():
    P = first_order_pencil(0.3)
    f = SequenceTable(nonneg_orthant(1), Box((0,), (4,)), np.zeros(5))
    sol = solve(P, f, (1.0,), Box((0,), (20,)), Box((0,), (16,)))
    assert np.max(np.abs(sol.u.values)) < 1e-14


def test_infinite_aliasing_reaches_the_ledger_as_inf_not_nan():
    # on the full lattice the fitted envelope grows towards -inf, so every
    # aliasing bound diverges; f's support is longer than the kernel window
    P = OperatorPencil(1, 1, (((1,), 2.5 * np.eye(1)), ((0,), -np.eye(1))), np.eye(1))
    f = SequenceTable(FullLattice(1), Box((0,), (20,)), 0.5 ** np.arange(21.0))
    sol = solve(P, f, (1.0,), Box((-3,), (5,)), Box((-10,), (40,)))
    assert np.isinf(sol.kernel.aliasing).all()
    ks = np.arange(-10, 41)
    # infinite exactly where a kernel point meets f's support, finite elsewhere
    assert np.array_equal(np.isinf(sol.error), (ks >= -3) & (ks <= 25))
    assert not np.isnan(sol.error).any() and sol.ledger == math.inf


def test_solve_scaling_pencil_residual():
    P = scaling_pencil()
    f = gaussian_table(2, 10)
    sol = solve(P, f, (1.0, 1.0), Box((0, 0), (16, 16)), Box((0, 0), (12, 12)))
    rep = residual(P, sol.u, f, Box((1, 1), (10, 10)))
    assert rep["max_residual"] <= 1e-8


def test_residual_zero_case():
    P = first_order_pencil(0.5)
    u = SequenceTable(FullLattice(1), Box((-1,), (8,)), np.zeros(10))
    f = SequenceTable(nonneg_orthant(1), Box((0,), (8,)), np.zeros(9))
    assert residual(P, u, f, Box((0,), (6,)))["max_residual"] == 0.0


def test_residual_detects_perturbation():
    lam = 0.5
    P = first_order_pencil(lam)
    f = SequenceTable.delta(1)
    sol = solve(P, f, (1.0,), Box((0,), (40,)), Box((-1,), (20,)))
    vals = sol.u.values.copy()
    vals[5] += 1e-3
    bad = SequenceTable(sol.u.domain, sol.u.support, vals, sol.u.value_kind, sol.u.m)
    rep = residual(P, bad, f, Box((0,), (16,)))
    # the leading coefficient is the identity, so the bump shows up in full
    assert rep["max_residual"] >= 1e-3 * (1 - lam)


def test_solve_transform_domain_identity():
    P = first_order_pencil(0.4)
    f = SequenceTable.delta(1)
    sol = solve(P, f, (1.0,), Box((0,), (60,)), Box((0,), (50,)))
    for z in [(1.5,), (2.0 + 0.5j,)]:
        Fu = scalar(eval_forward(sol.u, z))
        Ff = scalar(eval_forward(f, z))
        sym = scalar(pencil_eval(P, z))
        assert sym * Fu == pytest.approx(Ff, rel=1e-8)


def test_solve_shift_invariance():
    P = first_order_pencil(0.6)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=5)
    f = SequenceTable(FullLattice(1), Box((0,), (4,)), vals)
    g = beta_shift(f, (-2,))  # g(k) = f(k-2)
    su = solve(P, f, (1.0,), Box((0,), (40,)), Box((-2,), (24,)))
    sv = solve(P, g, (1.0,), Box((0,), (40,)), Box((0,), (26,)))
    for k in range(2, 24):
        assert scalar(sv.u.at((k + 2,))) == pytest.approx(
            scalar(su.u.at((k,))), rel=1e-10, abs=1e-10
        )


def test_initial_condition_staircase():
    P = OperatorPencil(2, 1, (((1, 1), np.eye(1)), ((0, 0), -0.5 * np.eye(1))), np.eye(1))
    vals = np.zeros((3, 3))
    vals[0, 1] = 1.0  # on the staircase of the (1,1) term
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (2, 2)), vals)
    with pytest.raises(InitialConditionViolated):
        solve(P, f, (1.0, 1.0), Box((0, 0), (8, 8)), Box((0, 0), (6, 6)),
              orthant_variant=True)


def test_weyl_solve_residual_within_ledger():
    S = weyl_fractional_problem(0.5)
    f = SequenceTable.delta(1)
    sol = solve(S, f, (1.3,), Box((0,), (80,)), Box((0,), (48,)))
    rep = residual(S, sol.u, f, Box((4,), (32,)))
    assert rep["max_residual"] <= 10 * sol.ledger


@pytest.mark.parametrize("m", [1, 2])
def test_a_zero_pencil_pair_changes_nothing(m):
    # the Weyl slots carry A0 = 0 at shift 0; a 2-D pencil gets a zero pair
    # at a shift of its own.  The pair stays in the pencil and in max_shift,
    # but adds no block, so u, the ledgers and the residual are unchanged
    rng = np.random.default_rng(m)
    A = np.eye(m) + 0.3 * rng.normal(size=(m, m))
    S = weyl_fractional_problem(0.5, A, kernel_len=128)
    T = Symbol(1, m, (), S.terms, S.C)
    P = OperatorPencil(2, m, (((1, 1), 2 * A), ((0, 0), -np.eye(m))), np.eye(m))
    Z = OperatorPencil(2, m, P.pencil + (((1, 0), np.zeros((m, m))),), np.eye(m))
    f1, f2 = SequenceTable.delta(1), gaussian_table(2, 6)
    for (with_zero, without), f, kw, check in (
        ((S, T), f1, ((1.3,), Box((0,), (80,)), Box((0,), (48,))), Box((4,), (32,))),
        ((Z, P), f2, ((1.0, 1.0), Box((0, 0), (12, 12)), Box((0, 0), (10, 10))), Box((1, 1), (8, 8))),
    ):
        assert len(with_zero.pencil) == len(without.pencil) + 1
        assert with_zero.max_shift() == without.max_shift()
        assert len(with_zero._blocks) == len(without._blocks)
        a, b = solve(with_zero, f, *kw), solve(without, f, *kw)
        assert np.array_equal(a.u.values, b.u.values) and np.array_equal(a.error, b.error)
        assert a.ledger == b.ledger and np.array_equal(a.kernel.aliasing, b.kernel.aliasing)
        assert residual(with_zero, a.u, f, check) == residual(without, b.u, f, check)
    # an all-zero symbol keeps a block: it evaluates to 0, applies as 0, and is singular
    O = OperatorPencil(1, m, (((0,), np.zeros((m, m))), ((1,), np.zeros((m, m)))), np.eye(m))
    assert len(O._blocks) == 1 and not symbol_eval(O, (1.5,)).any()
    u = SequenceTable(nonneg_orthant(1), Box((0,), (6,)), np.ones((7, m)), "vector", m)
    assert residual(O, u, u, Box((0,), (4,)))["max_residual"] == pytest.approx(math.sqrt(m))
    with pytest.raises(SingularSymbol):
        green_function(O, (1.0,), Box((0,), (8,)))


def test_long_kernel_weyl_solve_takes_the_fft_path(monkeypatch):
    # 640 kernel terms on the 656 contour nodes of the window 0:320 (the
    # default grid, passed explicitly so that the quadrature runs): the
    # kernel transform is one folded FFT; forcing every axis onto the direct
    # power matrix must give the same u
    S = weyl_fractional_problem(0.5, kernel_len=640)
    f = SequenceTable.delta(1)
    ffts = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: ffts.append(1) or fft(*a, **kw))
    sol = solve(S, f, (1.3,), Box((0,), (320,)), Box((0,), (48,)), grid=(656,))
    assert ffts
    monkeypatch.setattr(ztransform, "_FFT_CROSSOVER", math.inf)
    ffts.clear()
    direct = solve(S, f, (1.3,), Box((0,), (320,)), Box((0,), (48,)), grid=(656,))
    assert not ffts
    scale = np.max(np.abs(direct.u.values))
    assert np.max(np.abs(sol.u.values - direct.u.values)) <= 1e-10 * scale


def test_multiterm_solve_residual():
    # B u(k) + A (a * u)(k+1) = f(k) on Z with a geometric N0 kernel
    a = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (60,)), lambda k: 0.3 ** k[0],
        envelope=Envelope(1.0, (0.3,)),
    )
    S = MultiTermSymbol(
        1, 1, np.eye(1), (VolterraTerm(a, (1,), 0.4 * np.eye(1)),), np.eye(1)
    )
    f = SequenceTable.delta(1)
    sol = solve(S, f, (1.0,), Box((-10,), (60,)), Box((-10,), (40,)))
    rep = residual(S, sol.u, f, Box((0,), (24,)))
    assert rep["max_residual"] <= max(10 * sol.ledger, 1e-10)


def brute_residual(lhs_terms, C, f, window):
    """max_k || sum_t A_t g_t(k + shift_t) - C f(k) || with g_t given per point."""
    worst = 0.0
    for k in window.points():
        acc = -C @ f.at(k)
        for A, g, shift in lhs_terms:
            acc = acc + A @ g(tuple(c + s for c, s in zip(k, shift)))
        worst = max(worst, np.linalg.norm(acc))
    return worst


def test_residual_matches_per_point_substitution():
    rng = np.random.default_rng(21)

    def mat():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    def vec_table(n, lo, hi):
        shape = tuple(b - a + 1 for a, b in zip(lo, hi)) + (2,)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return SequenceTable(FullLattice(n), Box(lo, hi), vals, "vector", 2)

    def conv_at(a, u, axes):
        # (a *^axes u)(k) = sum_s a(s) u(k - s on the given 1-based axes)
        def g(k):
            acc = np.zeros(2, dtype=complex)
            for s, av in a.support_points():
                l = list(k)
                for si, j in zip(s, axes):
                    l[j - 1] -= si
                acc = acc + av * u.at(tuple(l))
            return acc

        return g

    def diff_at(g, order):
        coeffs = [(-1) ** (order - j) * math.comb(order, j) for j in range(order + 1)]
        return lambda k: sum(c * g((k[0] + j,)) for j, c in enumerate(coeffs))

    C = mat()
    # 2-D pencil with shifts on both sides of the origin
    u = vec_table(2, (-2, -1), (6, 5))
    f = vec_table(2, (0, 0), (3, 4))
    A1, A2 = mat(), mat()
    P = OperatorPencil(2, 2, (((1, 0), A1), ((0, -1), A2)), C)
    w = Box((0, 0), (4, 4))
    expect = brute_residual([(A1, u.at, (1, 0)), (A2, u.at, (0, -1))], C, f, w)
    assert residual(P, u, f, w)["max_residual"] == pytest.approx(expect, rel=1e-12)
    # 2-D multi-term Volterra
    a = SequenceTable(nonneg_orthant(2), Box((0, 0), (2, 1)), rng.normal(size=(3, 2)))
    B, A = mat(), mat()
    S = MultiTermSymbol(2, 2, B, (VolterraTerm(a, (1, 0), A),), C)
    expect = brute_residual([(B, u.at, (0, 0)), (A, conv_at(a, u, (1, 2)), (1, 0))], C, f, w)
    assert residual(S, u, f, w)["max_residual"] == pytest.approx(expect, rel=1e-12)
    # 2-D mixed axes
    a1 = SequenceTable(nonneg_orthant(1), Box((0,), (3,)), rng.normal(size=4))
    S = MixedAxesSymbol(2, 2, (MixedAxesTerm(a1, (2,), A), MixedAxesTerm(a, (1, 2), B)), C)
    expect = brute_residual(
        [(A, conv_at(a1, u, (2,)), (0, 0)), (B, conv_at(a, u, (1, 2)), (0, 0))], C, f, w
    )
    assert residual(S, u, f, w)["max_residual"] == pytest.approx(expect, rel=1e-12)
    # 1-D Weyl fractional: second difference of a Weyl product plus a shifted term
    u1 = vec_table(1, (-3,), (12,))
    f1 = vec_table(1, (0,), (5,))
    a1 = SequenceTable(nonneg_orthant(1), Box((0,), (4,)), rng.normal(size=5))
    A0 = mat()
    S = WeylFractionalSymbol(2, (WeylTerm(a1, 2, 1, A),), A0, -1, C)
    w1 = Box((0,), (6,))
    expect = brute_residual(
        [(A, diff_at(conv_at(a1, u1, (1,)), 2), (1,)), (A0, u1.at, (-1,))], C, f1, w1
    )
    assert residual(S, u1, f1, w1)["max_residual"] == pytest.approx(expect, rel=1e-12)


KINDS = ("scalar", "vector", "matrix")


@st.composite
def operators(draw, n, m):
    """A symbol on Z^n whose kernels are finitely supported: pencil shifts on
    both sides of 0; scalar, vector and matrix kernels on all axes and, in
    2-D, on axis subsets; orders 0-2 in 1-D."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cplx(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    shifts = st.tuples(*[st.integers(-2, 2)] * n)
    js = draw(st.lists(shifts, max_size=3, unique=True))
    terms = []
    for _ in range(draw(st.integers(0 if js else 1, 3))):
        axes = None if n == 1 else draw(st.sampled_from((None, (1,), (2,), (1, 2))))
        kind = draw(st.sampled_from(KINDS))
        l = n if axes is None else len(axes)
        lo = tuple(draw(st.integers(-2, 1)) for _ in range(l))
        box = Box(lo, tuple(a + draw(st.integers(0, 3)) for a in lo))
        kernel = SequenceTable(FullLattice(l), box, cplx(box.shape + value_shape(kind, m)), kind, m)
        order = draw(st.integers(0, 2)) if n == 1 else 0
        terms.append(Term(kernel, cplx((m, m)), draw(shifts), axes, order))
    return Symbol(n, m, tuple((j, cplx((m, m))) for j in js), tuple(terms), np.eye(m))


@st.composite
def transform_cases(draw):
    """(S, u, z): an operator on Z^n, finitely supported vector data u and an
    open mesh of nodes with moduli in [0.8, 1.25]."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    S = draw(operators(n, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    box = Box(lo, tuple(a + draw(st.integers(0, 5 if n == 1 else 3)) for a in lo))
    vals = rng.normal(size=box.shape + (m,)) + 1j * rng.normal(size=box.shape + (m,))
    nodes = []
    for _ in range(n):
        size = draw(st.integers(1, 3))
        t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * size, max_size=2 * size)))
        nodes.append((0.8 + 0.45 * t[:size]) * np.exp(2j * np.pi * t[size:]))
    return S, SequenceTable(FullLattice(n), box, vals, "vector", m), np.ix_(*nodes)


# found by hypothesis: at z = 0.996875 the order-2 difference (z - 1)^2 ~ 1e-5
# cancels both sides to far below the rounding of their terms
_NEAR_ONE = (
    Symbol(1, 1, (), (Term(SequenceTable(FullLattice(1), Box((0,), (0,)), np.array([0.7 - 1.1j])),
                           [[1.3 + 0.4j]], (0,), None, 2),), np.eye(1)),
    SequenceTable(FullLattice(1), Box((-1,), (3,)), np.arange(1.0, 6.0)[:, None] * (1 - 2j),
                  "vector", 1),
    (np.array([0.996875 + 0j]),),
)


@given(transform_cases())
@example(_NEAR_ONE)
@settings(max_examples=100, deadline=None)
def test_operator_transforms_to_its_symbol(case):
    # Z[L u](z) = M(z) Z[u](z) for finitely supported u on Z^n: the summands
    # that _apply substitutes are the ones symbol_eval transforms.  Both sides
    # round within a multiple of eps of their terms uncancelled, which the same
    # sums with |A|, |V|, |u| and |z| bound
    S, u, z = case
    n, m = S.n, S.m
    # shifts, kernel supports and differences move the support by at most 6
    W = Box(tuple(a - 8 for a in u.support.lo), tuple(b + 8 for b in u.support.hi))
    Lu = SequenceTable(FullLattice(n), W, solver._apply(S, u, W), "vector", m)
    M, U = symbol_eval(S, z), eval_forward(u, z)
    dev = np.abs(eval_forward(Lu, z) - np.einsum("...ij,...j->...i", M, U))
    az = tuple(np.abs(zi) for zi in z)
    Mabs = sum(solver._times_A(replace(t, A=np.abs(t.A)), ztransform._power_sum(np.abs(V), lo, az))
               for t, lo, V in S._blocks)
    Uabs = eval_forward(SequenceTable(FullLattice(n), u.support, np.abs(u.values), "vector", m), az)
    scale = np.einsum("...ij,...j->...i", Mabs, Uabs).real
    assert np.all(dev <= 64 * np.finfo(float).eps * scale)


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------


def test_uniqueness_linear_pencil_witnessed():
    P = first_order_pencil(0.5)
    samples = [(1.0 * np.exp(2j * np.pi * t / 9),) for t in range(9)]
    rep = uniqueness_probe(P, samples)
    assert rep["verdict"] == "injectivity witnessed on samples"
    assert rep["min_sigma"] >= 0.5 - 1e-12


@pytest.mark.parametrize("lam, verdict", [(1.0, "not witnessed"),
                                          (0.5, "injectivity witnessed on samples")])
def test_uniqueness_probe_reads_sigma_at_the_roots_moved_onto_the_samples_circle(lam, verdict):
    # z - 1 is singular at its root 1 on |z| = 1, where solve refuses it (exit 3), but
    # random samples of the circle miss that point: sigma_min there is 0.  z - 0.5 has
    # sigma_min 0.5 at 1, its root moved onto the circle
    phases = np.random.default_rng(0).uniform(0.0, 2 * np.pi, 32)
    rep = uniqueness_probe(first_order_pencil(lam), [(np.exp(1j * p),) for p in phases])
    assert rep["verdict"] == verdict and rep["samples"] == 32 and rep["roots"] == [lam]
    assert rep["min_sigma"] == pytest.approx(1.0 - lam, abs=1e-15)


def test_uniqueness_root_modes_scalar():
    P = first_order_pencil(0.5)
    roots = pencil_roots_1d(P)
    assert np.allclose(sorted(np.abs(roots)), [0.5])
    assert homogeneous_mode_residual(P, (roots[0],), Box((0,), (20,))) < 1e-12


def test_root_mode_residual_invariance_2d():
    # scalar 2-D pencil with a separable root pair (l1, l2)
    l1, l2 = 0.6, 0.8
    P = OperatorPencil(
        2, 1,
        (((1, 1), np.eye(1)), ((1, 0), -l2 * np.eye(1)),
         ((0, 1), -l1 * np.eye(1)), ((0, 0), l1 * l2 * np.eye(1))),
        np.eye(1),
    )
    # P(l1, l2) = l1 l2 - l2 l1 - l1 l2 + l1 l2 = 0: the mode is homogeneous
    window = Box((0, 0), (10, 10))
    mode = SequenceTable.from_function(
        FullLattice(2), Box((-1, -1), (12, 12)),
        lambda k: l1 ** k[0] * l2 ** k[1],
    )
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (10, 10)), np.zeros((11, 11)))
    rep = residual(P, mode, f, window)
    assert rep["max_residual"] <= 1e-10


def test_uniqueness_two_term_weyl_witnessed():
    S = two_term_weyl_symbol()
    rng = np.random.default_rng(7)
    samples = [(1.4 * np.exp(1j * rng.uniform(0, 2 * np.pi)),) for _ in range(16)]
    rep = uniqueness_probe(S, samples)
    assert rep["verdict"] == "injectivity witnessed on samples"


# ---------------------------------------------------------------------------
# data promotion, initial conditions and root modes against the per-point
# loops they replaced
# ---------------------------------------------------------------------------


def ref_promote_data(f, m):
    if m == 1 or f.value_kind != "scalar":
        return f
    ones = np.ones(m, dtype=complex)
    return SequenceTable.from_function(
        f.domain, f.support, lambda k: f.at(k) * ones, "vector", m, f.envelope
    )


def ref_check_initial_conditions(P, f):
    for j, _ in P.pencil:
        for k, v in f.support_points():
            if all(c >= 0 for c in k) and any(c < ji for c, ji in zip(k, j)):
                if value_norm(v) != 0.0:
                    raise InitialConditionViolated(
                        f"f{k} = {v!r} nonzero on the staircase of term {j}"
                    )


def ref_homogeneous_mode_residual(P, lams, window):
    worst = 0.0
    for k in window.points():
        acc = 0.0 + 0j
        for j, A in P.pencil:
            term = complex(A.reshape(()))
            for li, ki, ji in zip(lams, k, j):
                term *= li ** (ki + ji)
            acc += term
        worst = max(worst, abs(acc))
    return worst


@st.composite
def data_tables(draw, n, kinds=("scalar", "vector")):
    """Tables around the origin with exact zeros scattered over the support."""
    lo = tuple(draw(st.integers(-2, 1)) for _ in range(n))
    support = Box(lo, tuple(a + draw(st.integers(0, 3)) for a in lo))
    domain = draw(st.sampled_from((
        FullLattice(n), nonneg_orthant(n), Orthant((-1,) * n), FiniteSet((lo, (0,) * n)),
    )))
    kind = draw(st.sampled_from(kinds))
    m = None if kind == "scalar" else draw(st.integers(1, 2))
    env = Envelope(1.0, (0.5,) * n) if draw(st.booleans()) else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = support.shape + value_shape(kind, m)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals[rng.random(support.shape) < draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))] = 0.0
    return SequenceTable(domain, support, vals, kind, m, env)


def assert_tables_close(new, ref):
    assert (new.domain, new.support, new.value_kind, new.m, new.envelope) == (
        ref.domain, ref.support, ref.value_kind, ref.m, ref.envelope
    )
    err = np.max(np.abs(new.values - ref.values), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(ref.values), initial=0.0)


@given(st.data(), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_promote_data_matches_per_point_reference(data, n, m):
    f = data.draw(data_tables(n))
    assert_tables_close(promote_data(f, m), ref_promote_data(f, m))


@given(st.data(), st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_check_initial_conditions_matches_per_point_reference(data, n):
    f = data.draw(data_tables(n))
    index = st.tuples(*[st.integers(0, 2)] * n)
    js = data.draw(st.lists(index, min_size=1, max_size=3, unique=True))
    P = OperatorPencil(n, 1, tuple((j, np.eye(1)) for j in js), np.eye(1))
    messages = []
    for check in (check_initial_conditions, ref_check_initial_conditions):
        try:
            check(P, f)
            messages.append(None)
        except InitialConditionViolated as e:
            messages.append(str(e))
    assert messages[0] == messages[1]


@given(st.data(), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_homogeneous_mode_residual_matches_per_point_reference(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    index = st.tuples(*[st.integers(-1, 2)] * n)
    js = data.draw(st.lists(index, min_size=1, max_size=4, unique=True))
    coeffs = rng.normal(size=len(js)) + 1j * rng.normal(size=len(js))
    P = OperatorPencil(n, 1, tuple((j, np.full((1, 1), c)) for j, c in zip(js, coeffs)), np.eye(1))
    # nonzero modes: a zero root is never probed (uniqueness_probe skips it)
    lams = tuple(complex(v) for v in rng.uniform(0.3, 2.0, n) * np.exp(2j * np.pi * rng.random(n)))
    lo = tuple(data.draw(st.integers(-3, 2)) for _ in range(n))
    window = Box(lo, tuple(a + data.draw(st.integers(0, 6)) for a in lo))
    new = homogeneous_mode_residual(P, lams, window)
    ref = ref_homogeneous_mode_residual(P, lams, window)
    # the largest summed term sets the rounding scale
    largest = max(
        abs(c) * math.prod(abs(li) ** (ki + ji) for li, ki, ji in zip(lams, k, j))
        for k in window.points()
        for j, c in zip(js, coeffs)
    )
    assert abs(new - ref) <= 1e-12 * largest
