import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlattice import ztransform
from zlattice.errors import (
    BoundaryNotFinite,
    CircleOutsideRegion,
    EvaluatorFailure,
    NoEnvelope,
    PointOutsideRegion,
    ShiftLeavesDomain,
    TwoSidedAxisWithoutRingRates,
    ZeroCoordinate,
)
from zlattice.lattice import (
    Box,
    Envelope,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    axis_interval,
    nonneg_orthant,
    value_shape,
)
from zlattice.ztransform import (
    Inside,
    Outside,
    PolyAnnulus,
    Ring,
    TransformEvaluator,
    _aliasing_bounds,
    convergence_region,
    derivative_series,
    eval_forward,
    forward_evaluator,
    forward_tail_bound,
    invert_contour,
    modulation,
    separable_transform,
    shift_identity,
)


def brute_force(f, z):
    """Independent naive summation over the stored support."""
    acc = 0.0 + 0j
    for k, v in f.support_points():
        w = 1.0 + 0j
        for zi, ki in zip(z, k):
            w *= zi ** (-ki)
        acc += complex(np.asarray(v).reshape(())) * w if np.asarray(v).ndim == 0 else 0
    return acc


def random_table(rng, n=2, lo=-2, span=3, domain=None):
    low = tuple(int(v) for v in rng.integers(lo, lo + 2, size=n))
    hi = tuple(a + span for a in low)
    shape = tuple(span + 1 for _ in range(n))
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SequenceTable(domain or FullLattice(n), Box(low, hi), vals)


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def test_diagonal_ones_sum():
    # f(k,k) = 1 on the diagonal up to K=30; at z=(2,2) the series is
    # sum 4^-k -> 4/3
    f = SequenceTable.from_function(
        nonneg_orthant(2),
        Box((0, 0), (30, 30)),
        lambda k: 1.0 if k[0] == k[1] else 0.0,
    )
    assert eval_forward(f, (2.0, 2.0)) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_delta_transform_is_one():
    f = SequenceTable.delta(2)
    for z in [(2.0, 3.0), (1j, -1.0), (0.1, 0.7)]:
        assert eval_forward(f, z) == 1.0


def test_matches_naive_double_loop():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_table(rng)
        z = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        assert eval_forward(f, z) == pytest.approx(
            sum(
                v * z[0] ** (-k[0]) * z[1] ** (-k[1])
                for k, v in f.support_points()
            ),
            rel=1e-12,
        )


def test_zero_coordinate_rejected():
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (3,)), lambda k: 1.0
    )
    with pytest.raises(ZeroCoordinate):
        eval_forward(f, (0.0,))


def test_linearity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = random_table(rng)
        g = SequenceTable(f.domain, f.support, rng.normal(size=f.support.shape))
        a, b = rng.normal(size=2)
        z = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        h = SequenceTable(f.domain, f.support, a * f.values + b * g.values)
        lhs = eval_forward(h, z)
        rhs = a * eval_forward(f, z) + b * eval_forward(g, z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# convergence region
# ---------------------------------------------------------------------------


def test_region_from_envelope():
    f = SequenceTable.from_function(
        nonneg_orthant(2),
        Box((0, 0), (3, 3)),
        lambda k: 0.5 ** k[0] * 0.7 ** k[1],
        envelope=Envelope(1.0, (0.5, 0.7)),
    )
    region = convergence_region(f)
    assert region.axes == (Outside(0.5), Outside(0.7))


def test_region_requires_envelope():
    f = SequenceTable.delta(1)
    with pytest.raises(NoEnvelope):
        convergence_region(f)


def test_region_negative_orthant():
    f = SequenceTable.from_function(
        Orthant((-1,)), Box((-4,), (0,)), lambda k: 2.0 ** k[0],
        envelope=Envelope(1.0, (2.0,)),
    )
    assert convergence_region(f).axes == (Inside(2.0),)


def test_region_two_sided_needs_pair_rates():
    f = SequenceTable.from_function(
        FullLattice(1), Box((-3,), (3,)), lambda k: 0.5 ** abs(k[0]),
        envelope=Envelope(1.0, (0.5,)),
    )
    with pytest.raises(TwoSidedAxisWithoutRingRates):
        convergence_region(f)
    g = SequenceTable.from_function(
        FullLattice(1), Box((-3,), (3,)), lambda k: 0.5 ** abs(k[0]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    assert convergence_region(g).axes == (Ring(0.5, 2.0),)


def test_region_rotation_invariance():
    f = SequenceTable.from_function(
        nonneg_orthant(2), Box((0, 0), (3, 3)), lambda k: 0.5 ** sum(k),
        envelope=Envelope(1.0, (0.5, 0.5)),
    )
    region = convergence_region(f)
    rng = np.random.default_rng(3)
    for _ in range(20):
        mods = rng.uniform(0.1, 2.0, size=2)
        phases = rng.uniform(0, 2 * np.pi, size=2)
        z1 = tuple(m * np.exp(1j * p) for m, p in zip(mods, phases))
        z2 = tuple(mods)
        assert region.contains(z1) == region.contains(z2)


def test_tail_bound_dominates_actual_tail():
    K = 6
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (K,)), lambda k: 0.5 ** k[0],
        envelope=Envelope(1.0, (0.5,)),
    )
    z = (2.0,)
    bound = forward_tail_bound(f, z)
    actual = sum(0.5**k * 2.0 ** (-k) for k in range(K + 1, 400))
    assert 0 < actual <= bound + 1e-15


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("K", [55, 60, 80])
def test_tail_bound_holds_below_rounding_of_the_full_sum(n, K):
    # 0.5^|k| stored on 0:K per axis: the tail is far below rounding of the
    # full sum 2^n, so a bound formed as full - stored reads exactly 0
    f = SequenceTable.from_function(
        nonneg_orthant(n), Box((0,) * n, (K,) * n), lambda k: 0.5 ** sum(k),
        envelope=Envelope(1.0, (0.5,) * n),
    )
    actual = 2.0 ** -K if n == 1 else 2.0 ** (2 - K) - 2.0 ** (-2 * K)
    _, tail = eval_forward(f, (1.0,) * n, with_tail=True)
    assert actual <= tail <= 2 * actual


def test_two_sided_tail_bound_covers_terms_between_support_and_zero():
    # support -3..-2 on a two-sided axis: the unstored k = -1 term belongs to
    # the tail
    def fv(k):
        return 2.0**k if k < 0 else 0.5**k

    f = SequenceTable(
        FullLattice(1), Box((-3,), (-2,)), np.array([fv(-3), fv(-2)]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    z = (1.0,)
    actual = sum(fv(k) for k in range(-400, 400) if k not in (-3, -2))
    assert actual == pytest.approx(2.625)
    assert actual <= forward_tail_bound(f, z) + 1e-15


@pytest.mark.parametrize("domain, rates, radii", [
    (FullLattice(2), ((1.6, 0.7), (1.3, 0.9)), (1.1, 1.0)),
    (nonneg_orthant(2), (0.95, 0.5), (1.0, 1.3)),
    (Orthant((1, -1)), (0.6, 1.05), (1.0, 1.0)),
], ids=["two-sided", "orthant", "mixed signs"])
def test_forward_tail_bound_on_contour_circles_covers_every_node(domain, rates, radii):
    """Circle nodes differ in modulus by rounding; the bound summed once per
    run at the node where that run is largest holds at every node."""
    f = SequenceTable(domain, Box((-2, -3), (2, 3)), np.ones((5, 7)), envelope=Envelope(1.0, rates))
    nodes = [ztransform._circle(r, N) for r, N in zip(radii, (36, 40))]
    tail = forward_tail_bound(f, np.ix_(*nodes))
    points = np.array([[forward_tail_bound(f, (a, b)) for b in nodes[1]] for a in nodes[0]])
    assert tail.shape == (36, 40)
    assert np.all(tail >= points) and np.all(tail <= points * (1 + 1e-12))


def test_eval_outside_region_rejected():
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (3,)), lambda k: 0.5 ** k[0],
        envelope=Envelope(1.0, (0.5,)),
    )
    with pytest.raises(PointOutsideRegion):
        eval_forward(f, (0.4,))


@pytest.mark.parametrize("c", [math.inf, complex(1, -math.inf), math.nan], ids=["inf", "-inf i", "nan"])
def test_a_non_finite_point_lies_in_no_region(c):
    from zlattice.fixtures import first_order_pencil, geometric_table
    from zlattice.solver import symbol_eval

    f, S = geometric_table(0.5, 8), first_order_pencil(0.5)
    for call in (lambda: eval_forward(f, (c,)), lambda: eval_forward(SequenceTable.delta(1), (c,)),
                 lambda: derivative_series(f, (1,), (c,)), lambda: symbol_eval(S, (c,))):
        with pytest.raises(PointOutsideRegion):
            call()


@pytest.mark.parametrize("k, r, expect", [(2, 1e200, 0.0), (-2, 1e200, math.inf), (2, 1e-200, math.inf),
                                          (-2, 1e-200, 0.0), (1, 1e308, 1e-308), (-1, 1e308, 1e308)])
def test_a_power_past_the_float_range_reads_0_or_inf(k, r, expect):
    """z^-k on a mesh of four phases, a one-term table at k."""
    z = r * np.array([1, 1j, -1, np.exp(0.3j)])
    with np.errstate(invalid="ignore"):  # an inf power times the value's zero imaginary part
        w = ztransform._power_sum(np.ones(1), (k,), (z,))
    assert np.allclose(np.abs(w), expect, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def test_shift_identity_zero_shift():
    rng = np.random.default_rng(2)
    f = random_table(rng, n=2, lo=0, domain=nonneg_orthant(2))
    F = forward_evaluator(f)
    G = shift_identity(F, f, (0, 0))
    z = (1.5, -2.0 + 0.5j)
    assert G(z) == pytest.approx(F(z), rel=1e-12)


def test_shift_identity_1d_formula():
    # transform of k -> f(k+j) equals z^j [F(z) - sum_{s<j} f(s) z^-s]
    rng = np.random.default_rng(8)
    f = random_table(rng, n=1, lo=0, span=5, domain=nonneg_orthant(1))
    j = 2
    F = forward_evaluator(f)
    G = shift_identity(F, f, (j,))
    from zlattice.lattice import beta_shift

    shifted = beta_shift(f, (j,))
    for z in [(1.7,), (2.0 - 1.0j,)]:
        assert G(z) == pytest.approx(eval_forward(shifted, z), rel=1e-10)


def test_shift_identity_2d_against_shifted_table():
    rng = np.random.default_rng(9)
    f = random_table(rng, n=2, lo=0, span=3, domain=nonneg_orthant(2))
    F = forward_evaluator(f)
    G = shift_identity(F, f, (1, 1))
    from zlattice.lattice import beta_shift

    shifted = beta_shift(f, (1, 1))
    for _ in range(5):
        z = tuple(rng.uniform(1.2, 2.0, size=2) * np.exp(1j * rng.uniform(0, 6.28, size=2)))
        assert G(z) == pytest.approx(eval_forward(shifted, z), rel=1e-10)


def test_shift_identity_rejects_leaving_domain():
    f = SequenceTable.delta(1)
    F = forward_evaluator(f)
    with pytest.raises(ShiftLeavesDomain):
        shift_identity(F, f, (-1,))


def test_shift_identity_rejects_unbounded_boundary():
    f = SequenceTable.from_function(
        nonneg_orthant(2), Box((0, 0), (3, 3)), lambda k: 0.5 ** sum(k),
        envelope=Envelope(1.0, (0.5, 0.5)),
    )
    F = forward_evaluator(f)
    with pytest.raises(BoundaryNotFinite):
        shift_identity(F, f, (1, 0))


def test_modulation_identity_factors():
    f = SequenceTable.delta(1)
    g = modulation(f, (2.0,))
    assert np.array_equal(g.values, f.values)


def test_modulation_transform_relation():
    rng = np.random.default_rng(4)
    f = random_table(rng, n=2)
    a = (1.5, -0.5 + 0.25j)
    g = modulation(f, a)
    for _ in range(5):
        z = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        lhs = eval_forward(g, z)
        rhs = eval_forward(f, tuple(zi / ai for zi, ai in zip(z, a)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("domain, lo, rate, a, scaled, zs", [
    (nonneg_orthant(1), 0, 0.5, -2.0, 1.0, (1.6 + 0.3j, -1.2j)),
    (FullLattice(1), -4, (2.0, 0.5), 0.5j, (1.0, 0.25), (0.6 + 0.3j, -0.5j)),
], ids=["one-sided", "two-sided"])
def test_modulation_scales_the_envelope(domain, lo, rate, a, scaled, zs):
    f = SequenceTable.from_function(domain, Box((lo,), (6,)), lambda k: 0.5 ** abs(k[0]),
                                    envelope=Envelope(1.5, (rate,)))
    g = modulation(f, (a,))
    assert g.envelope.M == 1.5 and g.envelope.rates == (scaled,) and g.envelope_ok()
    for z in zs:  # inside g's convergence region
        assert eval_forward(g, (z,)) == pytest.approx(eval_forward(f, (z / a,)), rel=1e-13)


def test_separable_deltas_give_one():
    F = separable_transform([SequenceTable.delta(1), SequenceTable.delta(1)])
    assert F((3.0, -2.0)) == pytest.approx(1.0)


def test_separable_geometric_closed_form():
    K = 60
    factors = []
    for r in (0.3, 0.6):
        factors.append(
            SequenceTable.from_function(
                nonneg_orthant(1), Box((0,), (K,)), lambda k, r=r: r ** k[0],
                envelope=Envelope(1.0, (r,)),
            )
        )
    F = separable_transform(factors)
    z = (1.1, 1.4)
    expect = 1.0 / (1.0 - 0.3 / 1.1) / (1.0 - 0.6 / 1.4)
    assert F(z) == pytest.approx(expect, rel=1e-9)


def test_separable_matches_tensor_table():
    rng = np.random.default_rng(6)
    f1 = random_table(rng, n=1, lo=0, span=3, domain=nonneg_orthant(1))
    f2 = random_table(rng, n=1, lo=0, span=2, domain=nonneg_orthant(1))
    tensor = SequenceTable.from_function(
        nonneg_orthant(2),
        Box(
            (f1.support.lo[0], f2.support.lo[0]),
            (f1.support.hi[0], f2.support.hi[0]),
        ),
        lambda k: f1.at((k[0],)) * f2.at((k[1],)),
    )
    F = separable_transform([f1, f2])
    for _ in range(5):
        z = tuple(rng.uniform(0.5, 2.0, size=2) + 1j * rng.normal(size=2))
        assert F(z) == pytest.approx(eval_forward(tensor, z), rel=1e-11)


def test_derivative_series_zero_order():
    rng = np.random.default_rng(12)
    f = random_table(rng)
    z = (1.3, -0.8 + 0.2j)
    assert derivative_series(f, (0, 0), z) == pytest.approx(eval_forward(f, z))


def test_derivative_series_delta():
    f = SequenceTable.delta(2)
    assert derivative_series(f, (1, 0), (2.0, 3.0)) == 0.0


def test_derivative_series_finite_difference():
    rng = np.random.default_rng(13)
    f = random_table(rng, n=2, lo=0, domain=nonneg_orthant(2))
    z = (1.7, 2.1)
    h = 1e-5
    fd = (eval_forward(f, (z[0] + h, z[1])) - eval_forward(f, (z[0] - h, z[1]))) / (2 * h)
    assert derivative_series(f, (1, 0), z) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# contour inversion
# ---------------------------------------------------------------------------


def test_invert_constant_gives_delta():
    F = TransformEvaluator(lambda z: 1.0 + 0j, PolyAnnulus((Outside(0.0),)))
    res = invert_contour(F, (1.0,), Box((-2,), (4,)))
    for k in range(-2, 5):
        expect = 1.0 if k == 0 else 0.0
        assert abs(res.table.at((k,)) - expect) < 1e-12


def test_invert_circle_outside_region():
    F = TransformEvaluator(lambda z: 1.0 + 0j, PolyAnnulus((Outside(2.0),)))
    with pytest.raises(CircleOutsideRegion):
        invert_contour(F, (1.0,), Box((0,), (3,)))


def test_invert_node_failure_aborts():
    def fn(z):
        raise RuntimeError("boom")

    F = TransformEvaluator(fn, PolyAnnulus((Outside(0.0),)))
    with pytest.raises(EvaluatorFailure) as exc:
        invert_contour(F, (1.0,), Box((0,), (1,)))
    assert exc.value.node == (0,)


def test_roundtrip_mixed_kinds():
    rng = np.random.default_rng(21)
    for kind, m in [("scalar", None), ("vector", 2), ("matrix", 3)]:
        n = 2
        lo = (-1, 0)
        hi = (2, 2)
        shape = (4, 3) + ((m,) if kind == "vector" else (m, m) if kind == "matrix" else ())
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        f = SequenceTable(FullLattice(n), Box(lo, hi), vals, kind, m)
        F = forward_evaluator(f)
        res = invert_contour(F, (1.0, 1.0), f.support)
        assert np.max(np.abs(res.table.values - f.values)) < 1e-10


def test_aliasing_ledger_bounds_true_error():
    # geometric sequence, small grid on purpose so wrap-around is visible
    K = 30
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (K,)), lambda k: 0.6 ** k[0],
        envelope=Envelope(1.0, (0.6,)),
    )
    F = forward_evaluator(f)
    window = Box((0,), (6,))
    res = invert_contour(F, (1.0,), window, grid=(10,))
    assert res.aliasing is not None
    for i, k in enumerate(range(0, 7)):
        err = abs(res.table.at((k,)) - 0.6**k)
        # stored-window truncation adds a tiny extra beyond pure aliasing
        assert err <= res.aliasing[i] + 1e-12


def test_inversion_deterministic():
    rng = np.random.default_rng(33)
    f = random_table(rng, n=2)
    F = forward_evaluator(f)
    a = invert_contour(F, (1.0, 1.0), f.support)
    b = invert_contour(F, (1.0, 1.0), f.support)
    assert np.array_equal(a.table.values, b.table.values)


def ref_aliasing_bounds(env, domain, radii, grid, window):
    """sum over m != 0 with k + m N in the domain of M prod_i b_i(k_i + m_i
    N_i) R_i^(-m_i N_i), at every k of the window: per axis the terms are
    enumerated in long double for |m_i| up to where they fall below 1e-19 of
    the largest, and the axes combine over every nonempty set of axes with
    m_i != 0, times the m_i = 0 terms of the others."""
    alias, own = [], []  # per axis: sum over m != 0, and the m = 0 term
    for i in range(window.dim):
        r_neg, r_pos = env.rates[i] if isinstance(env.rates[i], tuple) else (env.rates[i],) * 2
        lo, hi = axis_interval(domain, i)
        N, R = grid[i], np.longdouble(radii[i])
        gap = min(abs(math.log(r / radii[i])) for r in (r_neg, r_pos))  # per unit of j
        reach = 2 + int(45 / (N * gap)) if gap > 0 else 2 + 100 // N
        k = np.arange(window.lo[i], window.hi[i] + 1)[:, None]
        m = np.arange(-reach, reach + 1)[None, :]
        j = k + m * N
        log_b = j * np.log(np.where(j >= 0, r_pos, r_neg).astype(np.longdouble))
        terms = np.exp(log_b - (m * N) * np.log(R))
        inside = (j >= (-np.inf if lo is None else lo)) & (j <= (np.inf if hi is None else hi))
        terms = np.where(inside, terms, 0.0)
        alias.append(terms[:, m[0] != 0].sum(axis=1))
        own.append(terms[:, reach])
    out = np.zeros(window.shape, dtype=np.longdouble)
    for axes_set in itertools.product((False, True), repeat=window.dim):
        if any(axes_set):
            out = out + math.prod(np.ix_(*(a if s else d for a, d, s in zip(alias, own, axes_set))))
    return env.M * out


@st.composite
def aliasing_cases(draw, n):
    """(envelope, domain, radii, grid, window): per axis an orthant of either
    sign, possibly shifted, the full lattice or a box; a radius inside the
    envelope's ring, or one outside it that makes an unbounded side diverge;
    a grid down to span + 1 and a window up to 3N from the domain's edge."""
    kind = draw(st.sampled_from(("orthant", "shifted", "full", "box")))
    if kind == "box":
        lo = tuple(draw(st.integers(-6, 3)) for _ in range(n))
        domain = Box(lo, tuple(a + draw(st.integers(0, 12)) for a in lo))
    elif kind == "full":
        domain = FullLattice(n)
    else:
        domain = Orthant(tuple(draw(st.sampled_from((1, -1))) for _ in range(n)))
        if kind == "shifted":
            domain = Shifted(domain, tuple(draw(st.integers(-6, 6)) for _ in range(n)))
    rates, radii, grid, lo, hi = [], [], [], [], []
    for i in range(n):
        r = draw(st.sampled_from((0.3, 0.8, 1.2, (1.5, 0.6), (2.0, 0.5), (1.25, 0.9), (0.9, 1.1))))
        r_neg, r_pos = r if isinstance(r, tuple) else (r, r)
        u = draw(st.sampled_from((-0.3, 0.05, 0.3, 0.6, 0.95, 1.3)))  # 0 < u < 1: in the ring
        rates.append(r)
        radii.append(r_pos * (r_neg / r_pos) ** u if r_neg != r_pos else r_pos * 1.25**u)
        span = draw(st.integers(0, 4))
        N = draw(st.integers(span + 1, 20))
        d_lo, d_hi = axis_interval(domain, i)
        edge = d_lo if d_lo is not None else (d_hi if d_hi is not None else 0)
        lo.append(edge + draw(st.integers(-3 * N, 3 * N)))
        hi.append(lo[-1] + span)
        grid.append(N)
    env = Envelope(draw(st.sampled_from((0.0, 0.5, 2.0))), tuple(rates))
    return env, domain, tuple(radii), tuple(grid), Box(tuple(lo), tuple(hi))


def alias_sum_diverges(env, domain, radii):
    for i, R in enumerate(radii):
        r_neg, r_pos = env.rates[i] if isinstance(env.rates[i], tuple) else (env.rates[i],) * 2
        lo, hi = axis_interval(domain, i)
        if (hi is None and R <= r_pos) or (lo is None and R >= r_neg):
            return True
    return False


@given(st.integers(1, 3).flatmap(aliasing_cases))
@settings(max_examples=150, deadline=None)
def test_aliasing_bounds_match_per_point_reference(case):
    env, domain, radii, grid, window = case
    new = _aliasing_bounds(env, domain, radii, grid, window, 0.0)
    assert new.shape == window.shape
    if alias_sum_diverges(env, domain, radii):
        assert np.all(new == np.inf)
        return
    ref = ref_aliasing_bounds(env, domain, radii, grid, window)
    # the closed form of a run is the enumerated sum up to its rounding
    assert np.all(np.abs(new - ref) <= 1e-12 * ref)


# ---------------------------------------------------------------------------
# Mesh evaluation against the per-point loops it replaced
# ---------------------------------------------------------------------------


def ref_geom_sum(t, lo, hi):
    if lo is not None and hi is not None:
        if lo > hi:
            return 0.0
        if t == 1.0:
            return float(hi - lo + 1)
        return (t**lo) * (1.0 - t ** (hi - lo + 1)) / (1.0 - t)
    if hi is None and lo is not None:
        return (t**lo) / (1.0 - t) if t < 1.0 else math.inf
    if lo is None and hi is not None:
        return (t**hi) / (1.0 - 1.0 / t) if t > 1.0 else math.inf
    return math.inf


def ref_tail_bound(f, z):
    """Per-point tail bound, the scalar loop mesh evaluation replaced."""
    if f.envelope is None:
        return 0.0
    mods = [abs(zi) for zi in z]
    full = 1.0
    stored = 1.0
    for i in range(f.dim):
        r = f.envelope.rates[i]
        lo, hi = f.support.lo[i], f.support.hi[i]
        d_lo, d_hi = axis_interval(f.domain, i)
        if d_hi is None and d_lo is not None:
            q = (r[1] if isinstance(r, tuple) else r) / mods[i]
            full *= 1.0 / (1.0 - q)
            stored *= ref_geom_sum(q, max(lo, 0), hi)
        elif d_lo is None and d_hi is not None:
            q = mods[i] / (r[0] if isinstance(r, tuple) else r)
            full *= 1.0 / (1.0 - q)
            stored *= ref_geom_sum(q, max(-hi, 0), -lo)
        else:
            r_neg, r_pos = r
            qp = r_pos / mods[i]
            qn = mods[i] / r_neg
            full *= 1.0 / (1.0 - qp) + qn / (1.0 - qn)
            # the stored negative part starts at k = hi when hi < -1: the
            # terms between the window and 0 belong to the tail
            stored *= ref_geom_sum(qp, max(lo, 0), hi) + ref_geom_sum(qn, max(-hi, 1), -lo)
    return f.envelope.M * max(full - stored, 0.0)


def ref_eval_forward(f, z):
    acc = np.zeros(f.vshape, dtype=complex)
    for k, v in f.support_points():
        w = 1.0 + 0j
        for zi, ki in zip(z, k):
            w *= zi ** (-ki)
        acc = acc + np.asarray(v) * w
    return acc


def ref_derivative_series(f, v, z):
    acc = np.zeros(f.vshape, dtype=complex)
    for k, val in f.support_points():
        coeff = 1.0
        for ki, vi in zip(k, v):
            for t in range(vi):
                coeff *= -ki - t
        if coeff == 0:
            continue
        w = 1.0 + 0j
        for zi, ki, vi in zip(z, k, v):
            w *= zi ** (-ki - vi)
        acc = acc + np.asarray(val) * (coeff * w)
    return acc


def ref_shift_identity(f, a, z):
    boundary = [
        (k, v)
        for k, v in f.support_points()
        if k in f.domain and tuple(c - ai for c, ai in zip(k, a)) not in f.domain
    ]
    za = 1.0 + 0j
    for zi, ai in zip(z, a):
        za *= zi**ai
    acc = ref_eval_forward(f, z)
    for k, v in boundary:
        w = 1.0 + 0j
        for zi, ki in zip(z, k):
            w *= zi ** (-ki)
        acc = acc - np.asarray(v) * w
    return za * acc


def on_nodes(nodes, fn, vshape=()):
    """fn at every node of the mesh, stacked in row-major order."""
    grid = tuple(len(a) for a in nodes)
    out = np.empty(grid + vshape, dtype=complex)
    for t in np.ndindex(*grid):
        out[t] = fn(tuple(complex(a[i]) for a, i in zip(nodes, t)))
    return out


def assert_mesh_close(new, ref, scale=None):
    # relative to the largest value on the mesh, or to the given term scale
    # where the values themselves may cancel
    assert new.shape == ref.shape
    if scale is None:
        scale = np.max(np.abs(ref), initial=0.0)
    assert np.max(np.abs(new - ref), initial=0.0) <= 1e-12 * scale


KINDS = ("scalar", "vector", "matrix")


@st.composite
def mesh_tables(draw, n, kind, m, envelope=True, full_only=False):
    """A table with negative support indices allowed, on an orthant or on the
    full lattice, often with an envelope."""
    lo = tuple(draw(st.integers(-3, 1)) for _ in range(n))
    hi = tuple(a + draw(st.integers(0, 3)) for a in lo)
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    full = full_only or draw(st.booleans())
    domain = FullLattice(n) if full else Orthant(signs)
    env = None
    if envelope and draw(st.booleans()):
        pairs = ((2.0, 0.5), (1.5, 0.8), (3.0, 1.2))
        rates = [draw(st.sampled_from(pairs if full else (0.5, 0.9, 1.3))) for _ in range(n)]
        env = Envelope(draw(st.sampled_from((0.5, 2.0))), tuple(rates))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = Box(lo, hi).shape + value_shape(kind, m)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SequenceTable(domain, Box(lo, hi), vals, kind, m if kind != "scalar" else None, env)


@st.composite
def mesh_nodes(draw, f):
    """Per-axis node arrays inside the table's convergence region."""
    nodes = []
    for i in range(f.dim):
        size = draw(st.integers(1, 3))
        u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        if f.envelope is None:
            mods = 0.5 + 1.5 * u
        else:
            r = f.envelope.rates[i]
            lo, hi = axis_interval(f.domain, i)
            if hi is None and lo is not None:
                mods = r * (1.2 + 0.8 * u)
            elif lo is None and hi is not None:
                mods = r * (0.5 + 0.3 * u)
            else:
                mods = r[1] * 1.05 + (r[0] * 0.95 - r[1] * 1.05) * u
        phases = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=size, max_size=size)))
        nodes.append(mods * np.exp(1j * phases))
    return nodes


@given(st.data(), st.integers(1, 3), st.sampled_from(KINDS), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_eval_forward_mesh_matches_per_point_reference(data, n, kind, m):
    f = data.draw(mesh_tables(n, kind, m))
    nodes = data.draw(mesh_nodes(f))
    grid = tuple(len(a) for a in nodes)
    val, tail = eval_forward(f, np.ix_(*nodes), with_tail=True)
    assert_mesh_close(val, on_nodes(nodes, lambda z: ref_eval_forward(f, z), f.vshape))
    ref_tail = on_nodes(nodes, lambda z: ref_tail_bound(f, z)).real
    np.testing.assert_allclose(np.broadcast_to(tail, grid), ref_tail, rtol=1e-12, atol=0.0)
    # the evaluator's fn is the same power sum
    assert_mesh_close(np.asarray(forward_evaluator(f).fn(np.ix_(*nodes))), val)


@given(st.data(), st.integers(1, 3), st.sampled_from(KINDS), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_derivative_series_mesh_matches_per_point_reference(data, n, kind, m):
    f = data.draw(mesh_tables(n, kind, m))
    nodes = data.draw(mesh_nodes(f))
    v = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    new = derivative_series(f, v, np.ix_(*nodes))
    assert_mesh_close(new, on_nodes(nodes, lambda z: ref_derivative_series(f, v, z), f.vshape))


@given(st.data(), st.integers(1, 3), st.sampled_from(KINDS), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_shift_identity_mesh_matches_per_point_reference(data, n, kind, m):
    # an envelope on a multi-axis orthant makes the boundary unbounded
    f = data.draw(mesh_tables(n, kind, m, envelope=n == 1))
    signs = f.domain.signs if isinstance(f.domain, Orthant) else (1,) * n
    a = tuple(s * data.draw(st.integers(0, 2)) for s in signs)
    nodes = data.draw(mesh_nodes(f))
    G = shift_identity(forward_evaluator(f), f, a)
    new = np.broadcast_to(G.fn(np.ix_(*nodes)), tuple(len(x) for x in nodes) + f.vshape)
    # the boundary sum may cancel F(z) exactly: scale by the summed terms
    terms = SequenceTable(f.domain, f.support, np.abs(f.values), f.value_kind, f.m)
    scale = np.max(np.abs(on_nodes(
        [np.abs(x) for x in nodes],
        lambda z: ref_eval_forward(terms, z) * np.prod(np.abs(z) ** np.array(a, dtype=float)),
        f.vshape,
    )))
    assert_mesh_close(new, on_nodes(nodes, lambda z: ref_shift_identity(f, a, z), f.vshape), scale)


@given(st.data(), st.integers(1, 3), st.sampled_from(KINDS), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_separable_transform_mesh_matches_per_point_reference(data, n, kind, m):
    factors = [data.draw(mesh_tables(1, "scalar", None)) for _ in range(n - 1)]
    factors.append(data.draw(mesh_tables(1, kind, m)))
    nodes = [data.draw(mesh_nodes(f))[0] for f in factors]
    F = separable_transform(factors)
    new = np.broadcast_to(F.fn(np.ix_(*nodes)), tuple(len(x) for x in nodes) + factors[-1].vshape)

    def ref(z):
        acc = ref_eval_forward(factors[-1], (z[-1],))
        for f, zi in zip(factors[:-1], z[:-1]):
            acc = acc * ref_eval_forward(f, (zi,))
        return acc

    assert_mesh_close(new, on_nodes(nodes, ref, factors[-1].vshape))


@pytest.mark.parametrize("kind,m", [("scalar", None), ("vector", 2), ("matrix", 2)])
@pytest.mark.parametrize("bad", [[(3, 5)], [(7, 1)], [(7, 1), (3, 5)]])
def test_invert_nan_at_interior_node_names_that_node(kind, m, bad):
    # with several bad nodes the first in row-major order is named
    grid = (8, 9)
    vshape = value_shape(kind, m)

    def fn(z):
        z1, z2 = z
        hit = np.zeros(np.broadcast_shapes(z1.shape, z2.shape), dtype=bool)
        for t in bad:
            at = [np.exp(2j * np.pi * ti / N) for ti, N in zip(t, grid)]
            hit |= np.isclose(z1, at[0]) & np.isclose(z2, at[1])
        val = np.where(hit, np.nan, 1.0 / (z1 * z2))
        return val.reshape(val.shape + (1,) * len(vshape)) * np.ones(vshape)

    F = TransformEvaluator(fn, PolyAnnulus((Outside(0.0), Outside(0.0))), kind, m)
    with pytest.raises(EvaluatorFailure) as exc:
        invert_contour(F, (1.0, 1.0), Box((0, 0), (3, 3)), grid=grid)
    assert exc.value.node == min(bad)


def test_invert_calls_evaluator_once_on_the_whole_grid():
    calls = []

    def fn(z):
        calls.append(tuple(np.shape(zi) for zi in z))
        return 1.0 / (z[0] * z[1])

    F = TransformEvaluator(fn, PolyAnnulus((Outside(0.0), Outside(0.0))))
    res = invert_contour(F, (1.0, 1.0), Box((-1, 0), (2, 2)), grid=(6, 5))
    assert calls == [((6, 1), (1, 5))]
    expect = np.zeros((4, 3))
    expect[2, 1] = 1.0  # the coefficient at k = (1, 1)
    assert np.max(np.abs(res.table.values - expect)) < 1e-12


# ---------------------------------------------------------------------------
# power sums on circle grids: the folded FFT against the direct contraction
# ---------------------------------------------------------------------------


def ref_power_sum(values, lo, z, v):
    """sum_k c(k) values[k] z^(-k-v) and the sum of the term moduli, in long
    double, with z given as one 1-D node array per coordinate; node axes in
    coordinate order, then the value axes."""
    acc = np.asarray(values, np.clongdouble)
    mod = np.abs(acc)
    for lo_i, zi, vi in zip(lo, z, v):
        k = np.arange(lo_i, lo_i + acc.shape[0])[:, None]
        c = np.ones(k.shape, np.longdouble)
        for t in range(vi):
            c = c * (-k - t)
        w = c * np.asarray(zi, np.clongdouble).reshape(1, -1) ** (-k - vi)
        acc = np.tensordot(acc, w, axes=(0, 0))
        mod = np.tensordot(mod, np.abs(w), axes=(0, 0))
    vdim = acc.ndim - len(z)
    order = list(range(vdim, acc.ndim)) + list(range(vdim))
    return acc.transpose(order), mod.transpose(order)


def count_calls(mp, owner, name):
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    fn = getattr(owner, name)
    mp.setattr(owner, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def assert_within_term_mass(new, ref, mod):
    err = np.abs(np.asarray(new, np.clongdouble) - ref)
    assert np.all(err <= 1e-12 * mod)


@st.composite
def circle_power_sums(draw):
    """Values on a box, a mesh of 1-3 uniform circles and the coordinates
    the kernel reads, in any order: (values, lo, v, mesh nodes, coordinate
    -> mesh dimension)."""
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(1, dims))
    kind = draw(st.sampled_from(KINDS))
    vshape = value_shape(kind, draw(st.integers(1, 2)))
    top = {1: 120, 2: 40, 3: 10}[n]  # above the crossover and several wraps
    mesh = [
        ztransform._circle(draw(st.floats(0.5, 2.0)), draw(st.integers(1, 32)))
        for _ in range(dims)
    ]
    axes = draw(st.permutations(range(dims)))[:n]
    lo = tuple(draw(st.integers(-5, 3)) for _ in range(n))
    v = tuple(draw(st.integers(0, 2)) for _ in range(n))
    L = tuple(draw(st.integers(1, top)) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=L + vshape) + 1j * rng.normal(size=L + vshape)
    return vals, lo, v, mesh, axes


@given(circle_power_sums())
@settings(max_examples=150, deadline=None)
def test_power_sum_fft_path_matches_long_double_reference(case):
    vals, lo, v, mesh, axes = case
    n = len(axes)
    z = tuple(np.ix_(*mesh)[d] for d in axes)
    ref, mod = ref_power_sum(vals, lo, [mesh[d] for d in axes], v)
    # nodes in mesh order, 1 on the mesh dimensions the kernel does not read
    shape = [1] * len(mesh)
    for d in axes:
        shape[d] = mesh[d].size
    order = list(np.argsort(axes)) + list(range(n, ref.ndim))
    ref = ref.transpose(order).reshape(tuple(shape) + vals.shape[n:])
    mod = mod.transpose(order).reshape(ref.shape)
    crossing = sum(
        L > ztransform._FFT_CROSSOVER * math.log2(mesh[d].size) for L, d in zip(vals.shape, axes)
    )
    with pytest.MonkeyPatch.context() as mp:
        ffts = count_calls(mp, np.fft, "fft")
        assert_within_term_mass(ztransform._power_sum(vals, lo, z, v), ref, mod)
        assert len(ffts) == crossing
        # every axis on the FFT path, whatever its length
        mp.setattr(ztransform, "_FFT_CROSSOVER", -1.0)
        ffts.clear()
        assert_within_term_mass(ztransform._power_sum(vals, lo, z, v), ref, mod)
        assert len(ffts) == n


def _moved_by_one_ulp(nodes):
    nodes = nodes.copy()
    nodes[5] = complex(np.nextafter(nodes[5].real, np.inf), nodes[5].imag)
    return nodes


OFF_GRID = {
    "one node moved by 1 ulp": _moved_by_one_ulp,
    "rotated": lambda c: c * np.exp(1j * np.pi / c.size),
    "reversed": lambda c: np.conj(c),
    "non-uniform": lambda c: abs(c[0]) * np.exp(2j * np.pi * (np.arange(c.size) / c.size) ** 1.1),
    "point": lambda c: c[3],
    "no nodes": lambda c: c[:0],
}


@pytest.mark.parametrize("case", sorted(OFF_GRID))
def test_power_sum_off_grid_coordinates_take_the_direct_path(monkeypatch, case):
    circle = ztransform._circle(1.1, 64)
    zi = OFF_GRID[case](circle)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    ref, mod = ref_power_sum(vals, (-3,), [np.atleast_1d(zi)], (0,))
    ffts = count_calls(monkeypatch, np.fft, "fft")
    dots = count_calls(monkeypatch, np, "tensordot")
    new = ztransform._power_sum(vals, (-3,), (zi,))
    assert not ffts and len(dots) == 1
    assert_within_term_mass(new, ref.reshape(new.shape), mod.reshape(new.shape))
    # the exact circle itself takes the FFT path
    ztransform._power_sum(vals, (-3,), (circle,))
    assert len(ffts) == 1 and len(dots) == 1


def test_invert_contour_nodes_take_the_fft_path(monkeypatch):
    # axis 0 stores 121 terms on 96 nodes (past the crossover, with a wrap),
    # axis 1 stores 4 terms on 22 nodes (direct)
    k1, k2 = np.meshgrid(np.arange(121), np.arange(4), indexing="ij")
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (120, 3)), 0.9**k1 * 0.5**k2)
    F = forward_evaluator(f)
    window = Box((0, 0), (40, 3))
    ffts = count_calls(monkeypatch, np.fft, "fft")
    res = invert_contour(F, (1.0, 1.0), window)
    assert res.grid == (96, 22) and len(ffts) == 1
    # on the unit circle the coefficient at k is the wrap sum over k + 96 m
    wrap = f.values[:41] + np.pad(f.values[96:], ((0, 16), (0, 0)))
    assert np.max(np.abs(res.table.values - wrap)) <= 1e-12 * np.max(np.abs(wrap))
    monkeypatch.setattr(ztransform, "_FFT_CROSSOVER", math.inf)
    direct = invert_contour(F, (1.0, 1.0), window)
    assert len(ffts) == 1
    assert np.max(np.abs(res.table.values - direct.table.values)) <= 1e-12 * np.max(np.abs(wrap))


def test_power_sum_weights_beyond_float_range_keep_the_direct_result(monkeypatch):
    # r^-(k+v) overflows for r = 1e-3 and k near 200: the axis falls back to
    # the direct power matrix, with the same non-finite entries
    circle = ztransform._circle(1e-3, 64)
    vals = np.ones((200, 2))
    ffts = count_calls(monkeypatch, np.fft, "fft")
    with np.errstate(over="ignore", invalid="ignore"):
        new = ztransform._power_sum(vals, (0,), (circle,), (1,))
        assert not ffts and not np.all(np.isfinite(new))
        monkeypatch.setattr(ztransform, "_FFT_CROSSOVER", math.inf)
        np.testing.assert_array_equal(new, ztransform._power_sum(vals, (0,), (circle,), (1,)))
