import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlattice.convolution import _diff, _stencil, conv_general
from zlattice.errors import DimensionMismatch, InsufficientWindow
from zlattice.fractional import (
    cesaro,
    cesaro_asymptote,
    cesaro_values,
    forward_difference,
    weyl_am,
    weyl_derivative,
    weyl_fractional,
    weyl_transform_identity_check,
)
from zlattice.lattice import (
    Box,
    Envelope,
    FiniteSet,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    nonneg_orthant,
    value_shape,
)
from zlattice.ztransform import eval_forward


def test_cesaro_alpha_one_is_ones():
    assert np.allclose(cesaro_values(1.0, 20), np.ones(21))


def test_cesaro_alpha_two_is_ramp():
    assert np.allclose(cesaro_values(2.0, 20), np.arange(1, 22))


def test_cesaro_alpha_zero_is_delta():
    v = cesaro_values(0.0, 8)
    assert v[0] == 1.0 and np.all(v[1:] == 0.0)


def test_cesaro_against_gamma_oracle():
    # c^alpha(k) = Gamma(k+alpha) / (Gamma(alpha) k!); the running product of
    # 2k roundings errs by at most gamma_{2k}, 5.7e-14 at k = 256.  The Weyl
    # kernels use alpha = ceil(a) - a, so small and fractional alpha too
    mpmath.mp.dps = 40
    for alpha in (1e-3, 0.5, 0.6, 0.7, 1.3, 2.7):
        vals = cesaro_values(alpha, 256)
        for k in (0, 1, 4, 17, 50, 128, 255, 256):
            ref = mpmath.gamma(k + alpha) / (mpmath.gamma(alpha) * mpmath.factorial(k))
            assert vals[k] == pytest.approx(float(ref), rel=1e-13)


def test_cesaro_envelope_holds():
    for alpha in (0.5, 1.0, 2.0, 3.5):
        assert cesaro(alpha, 200).envelope_ok()


def test_cesaro_rejects_negative_alpha():
    with pytest.raises(ValueError):
        cesaro_values(-0.5, 4)


def test_cesaro_asymptotic_ratio():
    # |c^alpha(k)/g_alpha(k) - 1| <= C/k with C bounded by the curvature term
    for alpha in (0.5, 1.3, 2.0):
        ks = np.array([10, 100, 1000, 10000])
        vals = cesaro_values(alpha, int(ks[-1]))[ks]
        g = cesaro_asymptote(alpha, ks)
        dev = np.abs(vals / g - 1.0) * ks
        C_cap = 2 * abs(alpha * (alpha - 1) / 2) + 1
        assert np.max(dev) <= C_cap


def test_semigroup_small():
    K = 64
    for a, b in [(0.5, 0.5), (1.0, 1.3), (0.0, 2.0)]:
        ca, cb, cab = cesaro(a, K), cesaro(b, K), cesaro_values(a + b, K)
        out = conv_general(ca, cb, Box((0,), (K,)), enforce=False)
        assert np.allclose(out.values.real, cab, rtol=1e-12)


# ---------------------------------------------------------------------------
# forward difference
# ---------------------------------------------------------------------------


def test_difference_constant_vanishes():
    f = SequenceTable.from_function(nonneg_orthant(1), Box((0,), (8,)), lambda k: 3.0)
    out = forward_difference(f, 1, Box((0,), (7,)))
    assert np.allclose(out.values, 0.0)


def test_second_difference_of_square():
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (10,)), lambda k: float(k[0] ** 2)
    )
    out = forward_difference(f, 2, Box((0,), (8,)))
    assert np.allclose(out.values, 2.0)


def test_difference_binomial_equals_iterated():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=12)
    f = SequenceTable(nonneg_orthant(1), Box((0,), (11,)), vals)
    direct = forward_difference(f, 3, Box((0,), (8,)))
    step = f
    for _ in range(3):
        step = forward_difference(step, 1, Box((0,), (step.support.hi[0] - 1,)))
    assert np.allclose(direct.values, step.values[:9])


def test_difference_window_guard():
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (5,)), lambda k: 0.5 ** k[0],
        envelope=Envelope(1.0, (0.5,)),
    )
    with pytest.raises(InsufficientWindow):
        forward_difference(f, 2, Box((0,), (5,)))


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------


def two_sided_geometric(K=200, hi=20):
    return SequenceTable.from_function(
        FullLattice(1),
        Box((-K,), (hi,)),
        lambda k: 2.0 ** -abs(k[0]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )


def test_weyl_delta_kernel_is_identity():
    f = two_sided_geometric()
    out = weyl_derivative(cesaro(0.0, 4), f, Box((-3,), (3,)), enforce=False)
    for k in range(-3, 4):
        assert out.at((k,)) == pytest.approx(f.at((k,)))


def test_weyl_ones_kernel_is_running_sum():
    vals = np.array([1.0, -2.0, 3.0, 0.5])
    f = SequenceTable(FullLattice(1), Box((0,), (3,)), vals)
    out = weyl_derivative(cesaro(1.0, 10), f, Box((0,), (3,)))
    assert np.allclose(out.values.real, np.cumsum(vals))


def test_weyl_half_matches_brute_force():
    f = two_sided_geometric(K=400, hi=10)
    a = cesaro(0.5, 400)
    window = Box((-4,), (4,))
    out, ledger = weyl_derivative(a, f, window, enforce=False, return_ledger=True)
    av = cesaro_values(0.5, 2000)
    for k in range(-4, 5):
        brute = sum(av[s] * 2.0 ** -abs(k - s) for s in range(2000))
        assert abs(out.at((k,)) - brute) <= max(1e-12, float(np.max(ledger)) + 1e-12)


def test_weyl_am_m_zero_is_plain_weyl():
    f = two_sided_geometric()
    a = cesaro(0.5, 100)
    w = Box((-2,), (2,))
    assert np.allclose(
        weyl_am(a, 0, f, w, enforce=False).values,
        weyl_derivative(a, f, w, enforce=False).values,
    )


def test_weyl_order_one_is_forward_difference():
    f = two_sided_geometric()
    out = weyl_am(cesaro(0.0, 4), 1, f, Box((-3,), (3,)), enforce=False)
    for k in range(-3, 4):
        assert out.at((k,)) == pytest.approx(f.at((k + 1,)) - f.at((k,)))


def test_weyl_fractional_composition_oracle():
    # kernel convolution and difference composed independently
    alpha = 0.5
    f = two_sided_geometric()
    window = Box((-3,), (3,))
    direct = weyl_fractional(alpha, f, window, kernel_len=150)
    a = cesaro(math.ceil(alpha) - alpha, 150)
    g = weyl_derivative(a, f, Box((-3,), (4,)), enforce=False)
    manual = forward_difference(g, 1, window)
    assert np.allclose(direct.values, manual.values)


# ---------------------------------------------------------------------------
# transform identity
# ---------------------------------------------------------------------------


def finite_u(rng, lo=0, span=6):
    vals = rng.normal(size=span + 1) + 1j * rng.normal(size=span + 1)
    return SequenceTable(FullLattice(1), Box((lo,), (lo + span,)), vals)


def test_identity_m_zero_is_product():
    rng = np.random.default_rng(2)
    u = finite_u(rng)
    a = cesaro(0.5, 80)
    rep = weyl_transform_identity_check(a, 0, u, [(1.4,), (1.2 + 0.4j,)])
    assert rep["max_rel_deviation"] <= 1e-10


def test_identity_delta_case():
    u = SequenceTable.delta(1, domain=FullLattice(1))
    a = cesaro(0.0, 4)
    m = 2
    d = weyl_am(a, m, u, Box((-2,), (0,)), enforce=False)
    for z in [(1.5,), (2.0 - 0.3j,)]:
        lhs = eval_forward(d, z)
        rhs = sum(
            (-1) ** (m - j) * math.comb(m, j) * z[0] ** j for j in range(m + 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_identity_random_cases():
    rng = np.random.default_rng(3)
    a = cesaro(0.3, 64)
    for _ in range(5):
        u = finite_u(rng)
        pts = [(1.2 + 0.1 * t,) for t in range(3)]
        rep = weyl_transform_identity_check(a, 1, u, pts)
        assert rep["max_rel_deviation"] <= 1e-9


@given(st.integers(1, 3), st.integers(0, 2), st.sampled_from(("vector", "matrix")),
       st.integers(4, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_identity_for_matrix_kernels(m, order, kind, L, seed):
    # a matrix kernel acts on a vector or matrix u as a matrix: F_a F_u
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    vals = 0.5 ** np.arange(L + 1)[:, None, None] * normal(L + 1, m, m)
    a = SequenceTable(nonneg_orthant(1), Box((0,), (L,)), vals, "matrix", m)
    lo, span = int(rng.integers(-3, 4)), int(rng.integers(0, 9))
    u = SequenceTable(FullLattice(1), Box((lo,), (lo + span,)),
                      normal(span + 1, *value_shape(kind, m)), kind, m)
    pts = [(rng.uniform(1.2, 2.5) * np.exp(2j * np.pi * rng.uniform()),) for _ in range(3)]
    assert weyl_transform_identity_check(a, order, u, pts)["max_rel_deviation"] <= 1e-9


def test_operators_linear_in_f():
    rng = np.random.default_rng(4)
    f = finite_u(rng)
    g = finite_u(rng)
    h = SequenceTable(f.domain, f.support, 2.0 * f.values - 0.5 * g.values)
    a = cesaro(0.7, 50)
    w = Box((0,), (4,))
    out_h = weyl_am(a, 1, h, w, enforce=False)
    out_f = weyl_am(a, 1, f, w, enforce=False)
    out_g = weyl_am(a, 1, g, w, enforce=False)
    assert np.allclose(out_h.values, 2.0 * out_f.values - 0.5 * out_g.values)


# ---------------------------------------------------------------------------
# The slice stencil against the per-point loop it replaced
# ---------------------------------------------------------------------------


def ref_forward_difference(f, m, window):
    if f.dim != 1:
        raise DimensionMismatch("forward difference is one-dimensional")
    if m < 0:
        raise ValueError("difference order must be >= 0")
    top = window.hi[0] + m
    if top > f.support.hi[0] and f.envelope is not None:
        raise InsufficientWindow(
            f"window needs f up to {top}, stored up to {f.support.hi[0]}"
        )
    coeffs = [(-1) ** (m - j) * math.comb(m, j) for j in range(m + 1)]

    def fn(k):
        acc = np.zeros(f.vshape, dtype=complex)
        for j, c in enumerate(coeffs):
            acc = acc + c * np.asarray(f.at((k[0] + j,)))
        return acc

    return SequenceTable.from_function(
        f.domain, window, fn, f.value_kind, f.m
    )


@st.composite
def tables_1d(draw):
    lo = draw(st.integers(-4, 3))
    support = Box((lo,), (lo + draw(st.integers(0, 6)),))
    domain = draw(st.sampled_from((
        FullLattice(1),
        nonneg_orthant(1),
        Orthant((-1,)),
        Box((lo + 1,), (lo + 3,)),
        Shifted(nonneg_orthant(1), (lo + 2,)),
        FiniteSet(((lo,), (lo + 2,), (lo + 5,))),
    )))
    kind = draw(st.sampled_from(("scalar", "vector", "matrix")))
    m = None if kind == "scalar" else draw(st.integers(1, 2))
    env = None
    if draw(st.booleans()):
        env = Envelope(1.0, (draw(st.sampled_from((0.5, 1.0, (2.0, 0.5)))),))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = support.shape + value_shape(kind, m)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SequenceTable(domain, support, vals, kind, m, env)


def test_stencil_is_the_binomial_row():
    """(-1)^p C(m, p): exactly while every Pascal sum is an integer below 2^53
    (m <= 56), and up to the CLI's largest order 1029 within 1.3e-15 relative
    (1.26e-15 at m = 925); every order in one pass of first differences."""
    s, row = _stencil(0), [1]
    for m in range(1, 1030):
        s, row = _diff(s), [a - b for a, b in zip(row + [0], [0] + row)]
        if m <= 56:
            assert s.tolist() == row  # a float equals an int only exactly
        exact = np.array([float(c) for c in row])
        assert np.all(np.abs(s - exact) <= 1.3e-15 * np.abs(exact)), m
    assert np.array_equal(_stencil(1029), s)


def raised(fn):
    """(result, None) or (None, exception type)."""
    try:
        return fn(), None
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return None, type(e)


@given(tables_1d(), st.integers(-1, 8), st.integers(-6, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_forward_difference_matches_per_point_reference(f, m, w_lo, w_len):
    window = Box((w_lo,), (w_lo + w_len,))
    new, e_new = raised(lambda: forward_difference(f, m, window))
    ref, e_ref = raised(lambda: ref_forward_difference(f, m, window))
    assert e_new is e_ref
    if ref is not None:
        assert (new.domain, new.support, new.value_kind, new.m) == (
            ref.domain, ref.support, ref.value_kind, ref.m
        )
        assert new.envelope is None
        err = np.max(np.abs(new.values - ref.values), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(ref.values), initial=0.0)
