import itertools
import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlattice import convolution
from zlattice.convolution import (
    DEFAULT_TOL,
    TOL_FLOOR,
    _correlate,
    conv_axes,
    conv_general,
    conv_theorem_check,
)
from zlattice.errors import DimensionMismatch, DivergentConvolution
from zlattice.fractional import cesaro
from zlattice.lattice import (
    Box,
    Envelope,
    FiniteSet,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    axis_interval,
    minkowski_sum,
    nonneg_orthant,
    value_norm,
    value_shape,
)
from zlattice.solver import OperatorPencil, promote_data, solve
from zlattice.ztransform import eval_forward


def random_box_table(rng, n=2, span=2, lo_range=(-2, 1)):
    lo = tuple(int(v) for v in rng.integers(*lo_range, size=n))
    hi = tuple(a + span for a in lo)
    shape = tuple(span + 1 for _ in range(n))
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SequenceTable(FullLattice(n), Box(lo, hi), vals)


def naive_conv(a, b, k):
    acc = 0.0 + 0j
    for l, bv in b.support_points():
        s = tuple(ki - li for ki, li in zip(k, l))
        if s in a.support and s in a.domain and l in b.domain:
            acc += complex(np.asarray(a.at(s)).reshape(())) * complex(
                np.asarray(bv).reshape(())
            )
    return acc


def test_delta_is_unit():
    rng = np.random.default_rng(1)
    b = random_box_table(rng)
    d = SequenceTable.delta(2, domain=FullLattice(2))
    out = conv_general(d, b, b.support)
    assert np.allclose(out.values, b.values)


def test_cesaro_ones_convolve_to_ramp():
    # c^1 * c^1 = c^2: (1,1,1,...) * (1,1,1,...) = (1,2,3,...)
    c1 = cesaro(1.0, 10)
    out = conv_general(c1, c1, Box((0,), (10,)), enforce=False)
    assert np.allclose(out.values.real, np.arange(1, 12))


def test_matches_naive_double_loop():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_box_table(rng)
        b = random_box_table(rng)
        window = minkowski_sum(a.support, b.support)
        out = conv_general(a, b, window)
        for k in window.points():
            assert out.at(k) == pytest.approx(naive_conv(a, b, k), rel=1e-12, abs=1e-12)


def test_commutativity():
    rng = np.random.default_rng(3)
    a = random_box_table(rng)
    b = random_box_table(rng)
    window = minkowski_sum(a.support, b.support)
    ab = conv_general(a, b, window)
    ba = conv_general(b, a, window)
    assert np.allclose(ab.values, ba.values)


def test_associativity():
    rng = np.random.default_rng(4)
    a = random_box_table(rng, span=1)
    b = random_box_table(rng, span=1)
    c = random_box_table(rng, span=1)
    w_ab = minkowski_sum(a.support, b.support)
    w_bc = minkowski_sum(b.support, c.support)
    w_all = Box(
        tuple(x + y for x, y in zip(w_ab.lo, c.support.lo)),
        tuple(x + y for x, y in zip(w_ab.hi, c.support.hi)),
    )
    left = conv_general(conv_general(a, b, w_ab), c, w_all)
    right = conv_general(a, conv_general(b, c, w_bc), w_all)
    assert np.max(np.abs(left.values - right.values)) < 1e-12


def test_faltung_weyl_identity_chain():
    # (a *0 b) o c = b o (a o c) = a o (b o c) for N0 kernels a, b against a
    # two-sided envelope-bounded c
    a = cesaro(0.4, 40)
    b = cesaro(0.8, 40)
    c = SequenceTable.from_function(
        FullLattice(1),
        Box((-60,), (30,)),
        lambda k: 0.5 ** abs(k[0]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    window = Box((-5,), (5,))
    ab = conv_general(a, b, Box((0,), (40,)), enforce=False)
    lhs = conv_general(ab, c, window, enforce=False)
    ac = conv_general(a, c, Box((-45,), (8,)), enforce=False)
    mid = conv_general(b, ac, window, enforce=False)
    bc = conv_general(b, c, Box((-45,), (8,)), enforce=False)
    rhs = conv_general(a, bc, window, enforce=False)
    assert np.max(np.abs(lhs.values - mid.values)) < 1e-10
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_matrix_values_commute_with_linear_maps():
    rng = np.random.default_rng(5)
    a = random_box_table(rng, n=1, span=2)
    vals = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    b = SequenceTable(FullLattice(1), Box((0,), (3,)), vals, "matrix", 2)
    L = rng.normal(size=(2, 2))
    window = minkowski_sum(a.support, b.support)
    conv_then_map = conv_general(a, b, window).values @ L
    mapped = SequenceTable(b.domain, b.support, vals @ L, "matrix", 2)
    map_then_conv = conv_general(a, mapped, window).values
    assert np.max(np.abs(conv_then_map - map_then_conv)) < 1e-12


def test_divergent_weyl_convolution_detected():
    # growing kernel against a sequence with no decay to the left: the tail
    # bound is infinite
    a = cesaro(1.0, 20)
    b = SequenceTable.from_function(
        FullLattice(1),
        Box((-20,), (20,)),
        lambda k: 1.0,
        envelope=Envelope(1.0, ((1.0, 1.0),)),
    )
    with pytest.raises(DivergentConvolution):
        conv_general(a, b, Box((0,), (3,)))


def test_axes_divergent_tail_stays_inf_where_pass_through_factor_underflows():
    # no decay to the left along the convolved axis: the tail is infinite at
    # every k, and 0.5^1100 underflows to 0 on the pass-through axis
    b = SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((1.0, 1.0), 0.5)),
    )
    window = Box((0, 1100), (2, 1100))
    with pytest.raises(DivergentConvolution):
        conv_axes(cesaro(1.0, 5), b, (1,), window)
    _, ledger = conv_axes(cesaro(1.0, 5), b, (1,), window, enforce=False, return_ledger=True)
    assert np.all(np.isinf(ledger))


def test_axes_pass_through_factor_overflow_gives_inf_ledger():
    # 0.5^-1100 overflows on the pass-through axis: the ledger is inf there,
    # and enforce rejects it
    b = SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((0.5, 0.5), (0.5, 0.5))),
    )
    window = Box((0, -1100), (2, -1100))
    _, ledger = conv_axes(cesaro(0.5, 5), b, (1,), window, enforce=False, return_ledger=True)
    assert np.all(np.isinf(ledger))
    with pytest.raises(DivergentConvolution):
        conv_axes(cesaro(0.5, 5), b, (1,), window)
    # a finite tail along the convolved axis times an overflowing factor is
    # inf too, never nan
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.3 ** np.arange(6), envelope=Envelope(1.0, (0.3,))
    )
    c = SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((2.0, 0.5), (0.5, 0.5))),
    )
    _, finite = conv_axes(a, c, (1,), Box((0, -60), (2, -60)), enforce=False, return_ledger=True)
    assert np.all(np.isfinite(finite)) and np.all(finite > 0)
    _, ledger = conv_axes(a, c, (1,), window, enforce=False, return_ledger=True)
    assert np.all(np.isinf(ledger))


def test_far_window_along_convolved_axis_has_no_overflow_or_nan():
    # 0.3^-1100 overflows the kernel factor of the convolved axis while the
    # geometric sum against it underflows; the true tail, about 2^-1100 / 0.85
    # = 1e-331, is below the float range, so the entry is a finite bound near
    # 0, never inf, nan or an OverflowError
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.3 ** np.arange(6), envelope=Envelope(1.0, (0.3,))
    )
    c = SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((2.0, 0.5), (0.5, 0.5))),
    )
    window = Box((-1100, 0), (-1098, 0))
    table, ledger = conv_axes(a, c, (1,), window, enforce=False, return_ledger=True)
    assert table.values.shape == (3, 1)
    assert ledger.shape == (3, 1) and np.all(np.isfinite(ledger))
    assert np.all((0 <= ledger) & (ledger <= 1e-300))
    # here 0.3^-1100 overflows against a finite sum: the tail is past the
    # float range, inf, not a finite number
    b = SequenceTable(
        FullLattice(1), Box((0,), (2,)), np.full(3, 0.1), envelope=Envelope(1.0, ((0.31, 0.5),))
    )
    _, ledger = conv_general(a, b, Box((-1100,), (-1098,)), enforce=False, return_ledger=True)
    assert np.all(np.isinf(ledger))


def test_axes_exact_zero_tail_stays_zero_where_pass_through_factor_overflows():
    # a finitely supported kernel against an enveloped table whose stored box
    # covers the whole convolved axis: the tail is exactly 0 at every k
    a = SequenceTable(nonneg_orthant(1), Box((0,), (1,)), np.ones(2))
    b = SequenceTable(
        Box((0, -1100), (2, -1100)), Box((0, -1100), (2, -1100)), np.full((3, 1), 0.1),
        envelope=Envelope(0.0, (0.5, 0.5)),
    )
    _, ledger = conv_axes(a, b, (1,), Box((0, -1100), (3, -1100)), enforce=False, return_ledger=True)
    assert np.array_equal(ledger, np.zeros((4, 1)))


def test_empty_axis_makes_a_divergent_tail_exactly_zero():
    # the convolved axis has no decay to the left, so its full sum diverges
    # at every k; but b's domain admits no k2 < 0 on the pass-through axis,
    # so the product is exactly 0 there and so is its ledger
    b = SequenceTable(
        Orthant((-1, 1)), Box((-2, 0), (0, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((1.0, 1.0), 0.5)),
    )
    window = Box((0, -3), (2, -1))
    table, ledger = conv_axes(cesaro(1.0, 5), b, (1,), window, enforce=False, return_ledger=True)
    assert np.array_equal(table.values, np.zeros((3, 3)))
    assert np.array_equal(ledger, np.zeros((3, 3)))
    assert np.array_equal(conv_axes(cesaro(1.0, 5), b, (1,), window).values, np.zeros((3, 3)))
    # where k2 >= 0 is admitted the divergent axis still makes the entry inf
    _, ledger = conv_axes(cesaro(1.0, 5), b, (1,), Box((0, -1), (2, 0)), enforce=False, return_ledger=True)
    assert np.array_equal(ledger[:, 0], np.zeros(3)) and np.all(np.isinf(ledger[:, 1]))


def test_tail_ledger_holds_below_rounding_of_the_full_sum():
    # the unstored terms are ~1e-36 against a full sum of order 1: a ledger
    # formed as full - stored cancels them to exactly 0.  The envelope is
    # exact here, so the ledger equals the tail up to the rounding of its
    # log-space geometric sums, which round up
    a = SequenceTable.from_function(
        FullLattice(1), Box((-60,), (60,)), lambda k: 0.5 ** abs(k[0]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    b = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (60,)), lambda k: 0.5 ** k[0], envelope=Envelope(1.0, (0.5,))
    )
    _, ledger = conv_general(a, b, Box((0,), (3,)), enforce=False, return_ledger=True)
    true_tail = np.array([
        math.fsum(0.5 ** abs(k - l) * 0.5**l for l in range(400) if l > 60 or abs(k - l) > 60)
        for k in range(4)
    ])
    assert np.allclose(true_tail, [2.51e-37, 5.02e-37, 1.00e-36, 2.01e-36], rtol=1e-2)
    assert np.all(ledger >= true_tail) and np.all(ledger <= (1 + 1e-12) * true_tail)


def test_unread_tail_ledger_is_not_computed(monkeypatch):
    calls = []
    real = convolution._tail_ledger

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(convolution, "_tail_ledger", spy)
    a, b = cesaro(0.5, 16), cesaro(0.7, 16)
    b2 = SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 3)), np.ones((4, 4)))
    window = Box((0,), (16,))
    conv_general(a, b, window, enforce=False)
    conv_axes(a, b2, (1,), Box((0, 0), (3, 3)), enforce=False)
    assert calls == []
    conv_general(a, b, window, enforce=False, return_ledger=True)
    conv_axes(a, b2, (1,), Box((0, 0), (3, 3)), enforce=False, return_ledger=True)
    conv_general(a, b, window, tol=1.0)
    assert len(calls) == 3


def test_weyl_tail_within_tolerance_passes():
    a = cesaro(0.5, 200)
    b = SequenceTable.from_function(
        FullLattice(1),
        Box((-200,), (20,)),
        lambda k: 0.5 ** abs(k[0]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    out, ledger = conv_general(a, b, Box((-3,), (3,)), return_ledger=True)
    assert ledger is not None and np.max(ledger) < 1e-12


# ---------------------------------------------------------------------------
# axis-subset product
# ---------------------------------------------------------------------------


def test_axes_full_set_equals_general():
    rng = np.random.default_rng(6)
    a = random_box_table(rng)
    b = random_box_table(rng)
    window = minkowski_sum(a.support, b.support)
    assert np.allclose(
        conv_axes(a, b, (1, 2), window).values,
        conv_general(a, b, window).values,
    )


def test_axes_empty_returns_b():
    rng = np.random.default_rng(7)
    b = random_box_table(rng)
    assert conv_axes(SequenceTable.delta(1), b, (), b.support) is b


def test_axes_single_is_rowwise_1d():
    rng = np.random.default_rng(8)
    a = random_box_table(rng, n=1, span=2)
    b = random_box_table(rng, n=2, span=3)
    lo = (b.support.lo[0], b.support.lo[1] + a.support.lo[0])
    hi = (b.support.hi[0], b.support.hi[1] + a.support.hi[0])
    window = Box(lo, hi)
    out = conv_axes(a, b, (2,), window)
    # row-wise oracle: 1-D convolution along axis 2 for each fixed k1
    for k1 in range(b.support.lo[0], b.support.hi[0] + 1):
        row = SequenceTable(
            FullLattice(1),
            Box((b.support.lo[1],), (b.support.hi[1],)),
            b.values[k1 - b.support.lo[0]],
        )
        expect = conv_general(a, row, Box((lo[1],), (hi[1],)))
        for k2 in range(lo[1], hi[1] + 1):
            assert out.at((k1, k2)) == pytest.approx(expect.at((k2,)), rel=1e-12, abs=1e-12)


def test_axes_validation():
    rng = np.random.default_rng(9)
    a = random_box_table(rng, n=1)
    b = random_box_table(rng, n=2)
    with pytest.raises(DimensionMismatch):
        conv_axes(a, b, (2, 1), b.support)
    with pytest.raises(DimensionMismatch):
        conv_axes(a, b, (3,), b.support)


@pytest.mark.parametrize("a_kind, b_kind", [
    ("vector", "vector"), ("vector", "scalar"), ("matrix", "vector"), ("scalar", "matrix"),
])
def test_axes_takes_every_value_kind_and_axis_order(a_kind, b_kind):
    # a kernel on axis 2 is a 2-D kernel of one row at k1 = 0, and a 2-D kernel
    # on axes (2, 1) is its transpose on axes (1, 2)
    rng = np.random.default_rng(12)

    def table(kind, lo):
        shape = (3,) * len(lo) + value_shape(kind, 2)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return SequenceTable(FullLattice(len(lo)), Box(lo, tuple(c + 2 for c in lo)), vals, kind, 2)

    a, a2, b = table(a_kind, (-1,)), table(a_kind, (0, -1)), table(b_kind, (1, -2))
    window = Box((-2, -4), (6, 4))
    row = SequenceTable(FullLattice(2), Box((0, -1), (0, 1)), a.values[None], a_kind, 2)
    a2t = SequenceTable(FullLattice(2), Box((-1, 0), (1, 2)), np.swapaxes(a2.values, 0, 1), a_kind, 2)
    for got, want in ((conv_axes(a, b, (2,), window), conv_general(row, b, window)),
                      (conv_axes(a2, b, (2, 1), window), conv_general(a2t, b, window))):
        assert got.value_kind == want.value_kind
        np.testing.assert_allclose(got.values, want.values, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# transform-side check
# ---------------------------------------------------------------------------


def test_theorem_check_delta_exact():
    d = SequenceTable.delta(2, domain=FullLattice(2))
    rng = np.random.default_rng(10)
    b = random_box_table(rng)
    pts = [tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(5)]
    rep = conv_theorem_check(d, b, pts)
    assert rep["max_rel_deviation"] < 1e-13


def test_theorem_check_random():
    rng = np.random.default_rng(11)
    a = random_box_table(rng)
    b = random_box_table(rng)
    pts = [
        tuple(rng.uniform(0.5, 2.0, size=2) * np.exp(1j * rng.uniform(0, 6.28, size=2)))
        for _ in range(20)
    ]
    rep = conv_theorem_check(a, b, pts)
    assert rep["max_rel_deviation"] <= 1e-10


def test_theorem_check_axes_mode():
    rng = np.random.default_rng(12)
    a = random_box_table(rng, n=1)
    b = random_box_table(rng, n=2)
    pts = [
        tuple(rng.uniform(0.5, 2.0, size=2) * np.exp(1j * rng.uniform(0, 6.28, size=2)))
        for _ in range(10)
    ]
    rep = conv_theorem_check(a, b, pts, axes=(1,))
    assert rep["max_rel_deviation"] <= 1e-10


@st.composite
def theorem_cases(draw):
    """(a, b, points, axes): finitely supported tables on Z^1 or Z^2 of any two value
    kinds in C^m, m <= 3, with a on every axis (axes None) or on a drawn axis list."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    kinds = draw(st.tuples(*[st.sampled_from(("scalar", "vector", "matrix"))] * 2))
    axes = draw(st.sampled_from([None, (1,)] + ([(2,), (1, 2), (2, 1)] if n == 2 else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(dim, kind):
        lo = rng.integers(-2, 2, dim)
        hi = lo + rng.integers(0, 4, dim)
        shape = tuple(hi - lo + 1) + value_shape(kind, m)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return SequenceTable(FullLattice(dim), Box(tuple(lo), tuple(hi)), values, kind,
                             None if kind == "scalar" else m)

    pts = [tuple(rng.uniform(0.6, 1.8, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
           for _ in range(3)]
    return table(len(axes or range(n)), kinds[0]), table(n, kinds[1]), pts, axes


@given(theorem_cases())
@settings(max_examples=100, deadline=None)
def test_theorem_check_holds_for_every_pair_of_value_kinds(case):
    # F_{a*b} = F_a (x) F_b with (x) the products' value rule: a matrix acts on a
    # vector or matrix, any other pair multiplies elementwise
    a, b, pts, axes = case
    assert conv_theorem_check(a, b, pts, axes=axes)["max_rel_deviation"] <= 1e-12


# ---------------------------------------------------------------------------
# Box domains smaller than the stored support
# ---------------------------------------------------------------------------


def test_box_domain_zeroes_stored_entries_outside_it():
    f = SequenceTable(Box((0,), (2,)), Box((0,), (4,)), np.ones(5))
    assert f.at((4,)) == 0
    assert eval_forward(f, (2.0,)) == pytest.approx(1.75, rel=1e-15)
    # at, the forward transform and a product with the unit impulse agree
    d = SequenceTable.delta(1, domain=FullLattice(1))
    prod = conv_general(d, f, f.support)
    assert [prod.at((k,)) for k in range(5)] == [f.at((k,)) for k in range(5)]
    assert sum(f.at((k,)) * 2.0**-k for k in range(5)) == eval_forward(f, (2.0,))


# ---------------------------------------------------------------------------
# The strided correlation: memory and library calls
# ---------------------------------------------------------------------------


def test_long_product_memory_is_window_plus_box():
    # a materialized window x box product of these factors takes 268 MB
    a, b = cesaro(0.3, 4096), cesaro(0.7, 4096)
    tracemalloc.start()
    try:
        conv_general(a, b, Box((0,), (4096,)), enforce=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_correlate_calls_no_blas_or_linalg_routine(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("matmul", "dot", "tensordot", "inner", "vdot"):
        monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, spy(f"linalg.{name}", fn))
    einsum = np.einsum

    def einsum_spy(*args, **kwargs):
        if kwargs.get("optimize", False) is not False:  # optimize hands off to BLAS
            calls.append("einsum(optimize)")
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum_spy)
    rng = np.random.default_rng(5)
    for n, m, ka, kb in itertools.product((1, 2), (1, 2), KINDS, KINDS):
        a = rng.normal(size=(3,) * n + value_shape(ka, m))
        b = rng.normal(size=(4,) * n + value_shape(kb, m))
        window = Box((-1,) * n, (5,) * n)
        _correlate(a, (0,) * n, b, (1,) * n, window, a.ndim - n, b.ndim - n)
    assert calls == []


# ---------------------------------------------------------------------------
# Per-point references: the loops the products and solve ran before they used
# the windowed correlation
# ---------------------------------------------------------------------------


def ref_mul(a_val, b_val):
    av = np.asarray(a_val)
    bv = np.asarray(b_val)
    if av.ndim == 2 and bv.ndim >= 1:
        return av @ bv
    return av * bv


# The per-index geometric sums the tail ledger used before it covered the whole
# window at once, kept verbatim as an independent reference.


def _geom_sum(t, lo: int | None, hi: int | None):
    """sum_{l=lo}^{hi} t^l elementwise, with infinite ends allowed; inf where
    divergent or beyond the float range."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("ratio must be positive")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if lo is not None and hi is not None:
            s = np.zeros_like(t) if lo > hi else np.where(
                t == 1.0, float(hi - lo + 1), (t**lo) * (1.0 - t ** (hi - lo + 1)) / (1.0 - t)
            )
        elif lo is not None:
            s = np.where(t < 1.0, (t**lo) / (1.0 - t), math.inf)
        elif hi is not None:
            s = np.where(t > 1.0, (t**hi) / (1.0 - 1.0 / t), math.inf)
        else:
            s = np.full_like(t, math.inf)
    return s[()]


class RefProfile(NamedTuple):
    lo: int | None  # admissible interval along the axis
    hi: int | None
    r_neg: float  # envelope factor r_neg^k for k < 0
    r_pos: float  # envelope factor r_pos^k for k >= 0


REF_UNIT = RefProfile(0, 0, 1.0, 1.0)  # the unit kernel: 1 at 0, nothing else


def ref_profiles(f, axes):
    """Envelope constant and per-axis profiles; a None axis is the unit kernel.
    Without an envelope the table is zero outside its support, so the
    admissible interval clips to the support and M is the largest stored norm."""
    env = f.envelope
    M = env.M if env is not None else (float(np.max(f.norms())) if f.values.size else 0.0)
    profs = []
    for ax in axes:
        if ax is None:
            profs.append(REF_UNIT)
            continue
        lo, hi = axis_interval(f.domain, ax)
        if env is None:
            s_lo, s_hi = f.support.lo[ax], f.support.hi[ax]
            lo = s_lo if lo is None else max(lo, s_lo)
            hi = s_hi if hi is None else min(hi, s_hi)
            profs.append(RefProfile(lo, hi, 1.0, 1.0))
        else:
            r = env.rates[ax]
            profs.append(RefProfile(lo, hi, *(r if isinstance(r, tuple) else (r, r))))
    return M, profs


def _pair_sum(pa: RefProfile, pb: RefProfile, k: int, lo: int | None, hi: int | None) -> float:
    """sum over l in [lo, hi] of pa.factor(k - l) * pb.factor(l).

    The summand is piecewise geometric; split the l-line at 0 and at k.
    """

    def clip(a, b, lo_, hi_):
        lo2 = a if lo_ is None else (lo_ if a is None else max(a, lo_))
        hi2 = b if hi_ is None else (hi_ if b is None else min(b, hi_))
        return lo2, hi2

    total = 0.0
    # pieces by sign of l: l < 0 uses pb.r_neg, l >= 0 uses pb.r_pos;
    # by sign of k - l: l <= k uses pa.r_pos, l > k uses pa.r_neg.
    pieces = []
    for (plo, phi, rb) in (( None, -1, pb.r_neg), (0, None, pb.r_pos)):
        for (qlo, qhi, ra) in ((None, k, pa.r_pos), (k + 1, None, pa.r_neg)):
            a, b = clip(plo, phi, qlo, qhi)
            a, b = clip(a, b, lo, hi)
            if a is not None and b is not None and a > b:
                continue
            pieces.append((a, b, ra, rb))
    for a, b, ra, rb in pieces:
        # term(l) = ra^(k-l) * rb^l = ra^k * (rb/ra)^l
        t = rb / ra
        s = _geom_sum(t, a, b)
        if math.isinf(s):
            return math.inf
        total += (ra**k) * s
    return total


def ref_tail_bound(a, b, k, a_axes, b_axes):
    # a None in a_axes is the unit kernel: stored and admissible at 0 only
    Ma, pa = ref_profiles(a, a_axes)
    Mb, pb = ref_profiles(b, b_axes)
    if Ma == 0.0 or Mb == 0.0:
        return 0.0
    tail = 0.0
    stored = 1.0
    divergent = empty = False
    for i, (ai, bi) in enumerate(zip(a_axes, b_axes)):
        ki = k[i]
        lo_d = pb[i].lo
        hi_d = pb[i].hi
        if pa[i].hi is not None:
            lo2 = ki - pa[i].hi
            lo_d = lo2 if lo_d is None else max(lo_d, lo2)
        if pa[i].lo is not None:
            hi2 = ki - pa[i].lo
            hi_d = hi2 if hi_d is None else min(hi_d, hi2)
        # an axis that admits no l makes the product exactly 0, even where
        # another axis diverges
        empty = empty or (lo_d is not None and hi_d is not None and lo_d > hi_d)
        a_lo, a_hi = (0, 0) if ai is None else (a.support.lo[ai], a.support.hi[ai])
        lo_s = max(b.support.lo[bi], ki - a_hi)
        hi_s = min(b.support.hi[bi], ki - a_lo)
        if lo_d is not None:
            lo_s = max(lo_s, lo_d)
        if hi_d is not None:
            hi_s = min(hi_s, hi_d)
        # the unstored terms summed directly, below and above the stored box
        s_stored = _pair_sum(pa[i], pb[i], ki, lo_s, hi_s) if lo_s <= hi_s else 0.0
        below_hi = lo_s - 1 if hi_d is None else min(hi_d, lo_s - 1)
        s_unstored = _pair_sum(pa[i], pb[i], ki, lo_d, below_hi) + _pair_sum(
            pa[i], pb[i], ki, max(lo_s, hi_s + 1), hi_d
        )
        if np.isinf(s_unstored):
            divergent = True
            continue
        tail = tail * (s_stored + s_unstored) + stored * s_unstored
        stored *= s_stored
    if empty:
        return 0.0
    if divergent:
        return np.inf
    return Ma * Mb * tail


def ref_check(acc, t, k, tol):
    scale = max(value_norm(acc), TOL_FLOOR / max(tol, 1e-300))
    if t > max(tol * scale, TOL_FLOOR):
        raise DivergentConvolution(f"tail bound {t:.3e} at k={k} exceeds tolerance")


def ref_conv_general(a, b, window, tol=DEFAULT_TOL, enforce=True):
    vshape = b.vshape if b.value_kind != "scalar" else a.vshape
    out = np.zeros(window.shape + vshape, dtype=complex)
    has_env = a.envelope is not None or b.envelope is not None
    ledger = np.zeros(window.shape) if has_env else None
    axes = tuple(range(a.dim))
    for idx in np.ndindex(*window.shape):
        k = tuple(lo + i for lo, i in zip(window.lo, idx))
        acc = np.zeros(vshape, dtype=complex)
        for s, av in a.support_points():
            if s not in a.domain:
                continue
            l = tuple(ki - si for ki, si in zip(k, s))
            if l not in b.domain or l not in b.support:
                continue
            acc = acc + ref_mul(av, b.at(l))
        out[idx] = acc
        if has_env:
            ledger[idx] = ref_tail_bound(a, b, k, axes, axes)
            if enforce:
                ref_check(acc, ledger[idx], k, tol)
    return out, ledger


def ref_conv_axes(a, b, axes, window, tol=DEFAULT_TOL, enforce=True):
    ax0 = tuple(j - 1 for j in axes)
    has_env = a.envelope is not None or b.envelope is not None
    out = np.zeros(window.shape + b.vshape, dtype=complex)
    ledger = np.zeros(window.shape) if has_env else None
    for idx in np.ndindex(*window.shape):
        k = tuple(lo + i for lo, i in zip(window.lo, idx))
        acc = np.zeros(b.vshape, dtype=complex)
        for s, av in a.support_points():
            if s not in a.domain:
                continue
            l = list(k)
            for si, j in zip(s, ax0):
                l[j] = k[j] - si
            l = tuple(l)
            if l not in b.domain or l not in b.support:
                continue
            acc = acc + np.asarray(b.at(l)) * av
        out[idx] = acc
        if has_env:
            # pass-through axes convolve with the unit kernel
            a_axes = tuple(ax0.index(j) if j in ax0 else None for j in range(b.dim))
            t = ref_tail_bound(a, b, k, a_axes, tuple(range(b.dim)))
            ledger[idx] = t
            if enforce:
                ref_check(acc, t, k, tol)
    return out, ledger


def ref_solve_error(kr, f, kernel_window, out_window):
    _, ledger = ref_conv_general(kr.table, f, out_window, enforce=False)
    err = ledger.astype(float).copy()
    fnorm = np.empty(f.support.shape)
    for fidx in np.ndindex(*f.support.shape):
        fnorm[fidx] = value_norm(f.values[fidx])
    for idx in np.ndindex(*out_window.shape):
        k = tuple(a + i for a, i in zip(out_window.lo, idx))
        acc = 0.0
        for fidx in np.ndindex(*f.support.shape):
            l = tuple(a + i for a, i in zip(f.support.lo, fidx))
            s = tuple(ki - li for ki, li in zip(k, l))
            if s in kr.table.support:
                kidx = tuple(c - a for c, a in zip(s, kernel_window.lo))
                acc += kr.aliasing[kidx] * fnorm[fidx]
        err[idx] += acc
    return err


# ---------------------------------------------------------------------------
# Property tests against the references
# ---------------------------------------------------------------------------

KINDS = ("scalar", "vector", "matrix")
RATES = (0.5, 0.9, 1.0, 1.3, (2.0, 0.5), (1.0, 1.0), (0.8, 1.2))


@st.composite
def domains(draw, support: Box):
    n = support.dim
    kind = draw(st.sampled_from(("orthant", "shifted", "finite", "full", "box")))
    if kind == "full":
        return FullLattice(n)
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    if kind == "orthant":
        return Orthant(signs)
    if kind == "shifted":
        offset = tuple(draw(st.integers(-2, 2)) for _ in range(n))
        return Shifted(Orthant(signs), offset)
    if kind == "finite":
        near = Box(tuple(a - 1 for a in support.lo), tuple(b + 1 for b in support.hi))
        pts = draw(st.lists(st.sampled_from(list(near.points())), min_size=1, max_size=8))
        return FiniteSet(tuple(pts))
    # a box inside the support, smaller than it wherever the support allows
    lo, hi = [], []
    for a, b in zip(support.lo, support.hi):
        c = draw(st.integers(a, b))
        lo.append(c)
        hi.append(draw(st.integers(c, max(c, b - 1))))
    return Box(tuple(lo), tuple(hi))


@st.composite
def tables(draw, n, kind, m, max_span=3):
    lo = tuple(draw(st.integers(-3, 2)) for _ in range(n))
    hi = tuple(a + draw(st.integers(0, max_span)) for a in lo)
    support = Box(lo, hi)
    domain = draw(domains(support))
    env = None
    if draw(st.integers(0, 3)):  # mostly enveloped, so both factors often are
        M = draw(st.sampled_from((0.0, 0.5, 2.0)))
        env = Envelope(M, tuple(draw(st.sampled_from(RATES)) for _ in range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = support.shape + value_shape(kind, m)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SequenceTable(domain, support, vals, kind, m if kind != "scalar" else None, env)


@st.composite
def windows(draw, lo, hi, outside=False):
    """A window around [lo, hi] that often sticks out of it; with ``outside``,
    sometimes one that lies wholly beyond it along one axis."""
    wlo = tuple(draw(st.integers(a - 2, b + 1)) for a, b in zip(lo, hi))
    window = Box(wlo, tuple(a + draw(st.integers(0, 4)) for a in wlo))
    if outside and draw(st.booleans()):
        i, gap = draw(st.integers(0, len(lo) - 1)), draw(st.integers(1, 3))
        shift = hi[i] + gap - window.lo[i] if draw(st.booleans()) else lo[i] - gap - window.hi[i]
        off = tuple(shift if j == i else 0 for j in range(len(lo)))
        window = Box(*(tuple(c + o for c, o in zip(end, off)) for end in (window.lo, window.hi)))
    return window


def outcome(fn):
    """(result, None) or (None, k) when fn raises DivergentConvolution at k."""
    try:
        return fn(), None
    except DivergentConvolution as e:
        return None, re.search(r"at k=(\(.*?\))", str(e)).group(1)


def assert_values_close(new, ref):
    # relative to the largest entry of the window: single entries may cancel
    assert np.max(np.abs(new - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def assert_ledgers_close(new, ref):
    if ref is None:
        assert new is None
        return
    assert np.array_equal(np.isinf(new), np.isinf(ref))
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0.0)


@given(
    st.data(),
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.integers(1, 2),
    st.sampled_from((1e-12, 1e-3, 10.0)),
)
@settings(max_examples=150, deadline=None)
def test_conv_general_matches_per_point_reference(data, n, ka, kb, m, tol):
    span = 3 if n < 3 else 2  # the per-point reference is slow in 3-D
    a = data.draw(tables(n, ka, m, span))
    b = data.draw(tables(n, kb, m, span))
    lo = tuple(x + y for x, y in zip(a.support.lo, b.support.lo))
    hi = tuple(x + y for x, y in zip(a.support.hi, b.support.hi))
    window = data.draw(windows(lo, hi, outside=True))
    table, ledger = conv_general(a, b, window, enforce=False, return_ledger=True)
    ref, ref_ledger = ref_conv_general(a, b, window, enforce=False)
    assert table.values.shape == ref.shape
    assert_values_close(table.values, ref)
    assert_ledgers_close(ledger, ref_ledger)
    _, k_new = outcome(lambda: conv_general(a, b, window, tol=tol))
    _, k_ref = outcome(lambda: ref_conv_general(a, b, window, tol=tol))
    assert k_new == k_ref


@given(
    st.data(),
    st.sampled_from(((1, (1,)), (2, (1,)), (2, (2,)), (2, (1, 2)), (3, (1, 3)))),
    st.sampled_from(KINDS),
    st.integers(1, 2),
    st.sampled_from((1e-12, 1e-3, 10.0)),
)
@settings(max_examples=100, deadline=None)
def test_conv_axes_matches_per_point_reference(data, shape, kb, m, tol):
    n, axes = shape
    a = data.draw(tables(len(axes), "scalar", m))
    b = data.draw(tables(n, kb, m, max_span=2))
    lo, hi = list(b.support.lo), list(b.support.hi)
    for i, j in enumerate(axes):
        lo[j - 1] += a.support.lo[i]
        hi[j - 1] += a.support.hi[i]
    window = data.draw(windows(lo, hi))
    table, ledger = conv_axes(a, b, axes, window, enforce=False, return_ledger=True)
    ref, ref_ledger = ref_conv_axes(a, b, axes, window, enforce=False)
    assert table.values.shape == ref.shape
    assert_values_close(table.values, ref)
    assert_ledgers_close(ledger, ref_ledger)
    _, k_new = outcome(lambda: conv_axes(a, b, axes, window, tol=tol))
    _, k_ref = outcome(lambda: ref_conv_axes(a, b, axes, window, tol=tol))
    assert k_new == k_ref


@given(
    st.data(),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(KINDS),
    st.floats(2.0, 3.0),
)
@settings(max_examples=30, deadline=None)
def test_solve_error_matches_per_point_reference(data, n, m, kf, a_diag):
    # A u(k + 1) - u(k) = f with A = a I: the Green kernel decays like a^-k
    A = a_diag * np.eye(m)
    P = OperatorPencil(n, m, (((1,) * n, A), ((0,) * n, -np.eye(m))), np.eye(m))
    K = data.draw(st.integers(2, 10 if n == 1 else 4))
    kernel_window = Box((0,) * n, (K,) * n)
    f = data.draw(tables(n, kf, m, max_span=2))
    lo = tuple(c for c in f.support.lo)
    hi = tuple(c + K for c in f.support.hi)
    out_window = data.draw(windows(lo, hi))
    res = solve(P, f, (1.0,) * n, kernel_window, out_window)
    fp = promote_data(f, m)
    ref, _ = ref_conv_general(res.kernel.table, fp, out_window, enforce=False)
    if fp.value_kind == "scalar":  # m = 1 with scalar data: u is scalar too
        assert res.u.value_kind == "scalar"
        ref = ref.reshape(out_window.shape)
    assert_values_close(res.u.values, ref)
    err = ref_solve_error(res.kernel, fp, kernel_window, out_window)
    np.testing.assert_allclose(res.error, err, rtol=1e-12, atol=0.0)
