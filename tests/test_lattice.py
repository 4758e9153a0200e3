import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlattice.errors import DimensionMismatch, SchemaError, UnrepresentableSum
from zlattice.lattice import (
    Box,
    Envelope,
    FiniteSet,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    beta_shift,
    emit,
    ingest,
    membership,
    minkowski_sum,
    nonneg_orthant,
    value_norm,
    value_norms,
    value_shape,
)
from zlattice.lattice import _as_index, _shift_envelope


def test_membership_orthant():
    assert membership(Orthant((+1, +1)), (0, 0))
    assert not membership(Orthant((+1, +1)), (-1, 3))
    assert membership(Box((0, 0), (2, 2)), (1, 2))


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(Orthant((+1, +1)), (0, 0, 0))


def test_membership_other_kinds():
    assert membership(FullLattice(3), (-5, 0, 7))
    assert membership(Orthant((+1, -1)), (3, -2))
    assert not membership(Orthant((+1, -1)), (3, 2))
    assert membership(Shifted(nonneg_orthant(2), (1, 1)), (1, 1))
    assert not membership(Shifted(nonneg_orthant(2), (1, 1)), (0, 1))
    fs = FiniteSet(((0, 1), (2, 3)))
    assert membership(fs, (2, 3))
    assert not membership(fs, (1, 1))


def test_minkowski_sum_basic():
    assert minkowski_sum(nonneg_orthant(2), nonneg_orthant(2)) == nonneg_orthant(2)
    assert minkowski_sum(Box((0, 0), (1, 1)), Box((2, 2), (3, 3))) == Box((2, 2), (4, 4))
    assert minkowski_sum(nonneg_orthant(1), FullLattice(1)) == FullLattice(1)


def test_minkowski_sum_unrepresentable():
    with pytest.raises(UnrepresentableSum):
        minkowski_sum(Orthant((+1,)), Orthant((-1,)))
    with pytest.raises(UnrepresentableSum):
        minkowski_sum(nonneg_orthant(2), Box((0, 0), (1, 1)))


def test_minkowski_sum_finite_sets():
    a = FiniteSet(((0, 0), (1, 0)))
    b = FiniteSet(((0, 1),))
    s = minkowski_sum(a, b)
    assert membership(s, (0, 1)) and membership(s, (1, 1))
    assert not membership(s, (0, 0))
    # a single translate against a non-finite domain folds into a shift
    t = minkowski_sum(b, nonneg_orthant(2))
    assert isinstance(t, Shifted)
    assert membership(t, (0, 1)) and not membership(t, (0, 0))


boxes_1d = st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
    lambda t: Box((t[0],), (t[0] + t[1],))
)


@given(boxes_1d, boxes_1d, boxes_1d)
@settings(max_examples=50, deadline=None)
def test_minkowski_commutative_associative(a, b, c):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))


# ---------------------------------------------------------------------------
# beta shift
# ---------------------------------------------------------------------------


def test_beta_shift_zero_is_identity():
    f = SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (3,)), lambda k: float(k[0])
    )
    g = beta_shift(f, (0,))
    assert np.allclose(g.values, f.values)
    assert g.support == f.support


def test_beta_shift_delta_out_of_domain():
    f = SequenceTable.delta(1)
    g = beta_shift(f, (1,))
    # g(k) = f(k+1); the only nonzero would sit at k = -1, outside N0
    assert all(abs(g.at((k,))) == 0.0 for k in range(-2, 4))


def test_beta_shift_relabels_indices():
    f = SequenceTable.from_function(
        FullLattice(1), Box((0,), (3,)), lambda k: float(k[0])
    )
    g = beta_shift(f, (1,))
    assert [g.at((k,)) for k in range(-1, 3)] == [0.0, 1.0, 2.0, 3.0]


def test_beta_shift_inverse_on_overlap():
    # double shift recovers f at every index where both shifts stay in-domain
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(4, 4))
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 3)), vals)
    h = beta_shift(beta_shift(f, (1, 2)), (-1, -2))
    for k in f.support.points():
        if (k[0] - 1, k[1] - 2) in f.domain:
            assert h.at(k) == f.at(k)


def ref_beta_shift(f, beta):
    """The per-point loop beta_shift ran before it offset the stored values."""
    beta = _as_index(beta)
    if len(beta) != f.dim:
        raise DimensionMismatch("shift dimension mismatch")
    lo = tuple(a - b for a, b in zip(f.support.lo, beta))
    hi = tuple(a - b for a, b in zip(f.support.hi, beta))
    return SequenceTable.from_function(
        f.domain,
        Box(lo, hi),
        lambda k: f.at(tuple(c + b for c, b in zip(k, beta))),
        f.value_kind,
        f.m,
        f.envelope if f.envelope is None else _shift_envelope(f.envelope, beta),
    )


@st.composite
def shifted_tables(draw):
    n = draw(st.integers(1, 2))
    lo = tuple(draw(st.integers(-3, 2)) for _ in range(n))
    support = Box(lo, tuple(a + draw(st.integers(0, 3)) for a in lo))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    domain = draw(st.sampled_from((
        FullLattice(n),
        Orthant(signs),
        Shifted(Orthant(signs), tuple(a + 1 for a in lo)),
        Box(tuple(a + 1 for a in lo), tuple(a + 2 for a in lo)),
        FiniteSet((lo, tuple(a + 1 for a in lo), tuple(a + 3 for a in lo))),
    )))
    kind = draw(st.sampled_from(("scalar", "vector", "matrix")))
    m = None if kind == "scalar" else draw(st.integers(1, 2))
    env = None
    if draw(st.booleans()):
        env = Envelope(1.5, tuple(draw(st.sampled_from((0.5, 2.0, (2.0, 0.5)))) for _ in range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = support.shape + value_shape(kind, m)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a beta of the wrong dimension now and then, for the raise
    beta = tuple(draw(st.integers(-3, 3)) for _ in range(draw(st.sampled_from((n, n, n, 3)))))
    return SequenceTable(domain, support, vals, kind, m, env), beta


@given(shifted_tables())
@settings(max_examples=200, deadline=None)
def test_beta_shift_matches_per_point_reference(case):
    f, beta = case
    try:
        ref = ref_beta_shift(f, beta)
    except DimensionMismatch:
        with pytest.raises(DimensionMismatch):
            beta_shift(f, beta)
        return
    g = beta_shift(f, beta)
    assert (g.domain, g.support, g.value_kind, g.m, g.envelope) == (
        ref.domain, ref.support, ref.value_kind, ref.m, ref.envelope
    )
    err = np.max(np.abs(g.values - ref.values), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(ref.values), initial=0.0)


# ---------------------------------------------------------------------------
# Storage semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain, support", [
    (nonneg_orthant(1), Box((-2,), (2,))),
    (Orthant((-1,)), Box((-2,), (2,))),
    (Box((-1, 0), (1, 2)), Box((-2, -1), (2, 3))),
    (Shifted(nonneg_orthant(1), (2,)), Box((-1,), (4,))),
    (FiniteSet(((0,), (2,), (5,))), Box((0,), (5,))),  # inside the points' bounding box
    (Shifted(FiniteSet(((0, 0), (1, 2), (2, 2))), (1, -1)), Box((1, -1), (3, 1))),
    (nonneg_orthant(2), Box((0, -2), (3, 2))),
    (Shifted(Orthant((1, -1)), (1, 1)), Box((1, -1), (3, 1))),
], ids=["orthant sign +1", "orthant sign -1", "box", "shifted orthant", "finite set", "shifted finite set",
        "2-D leaving along one axis", "2-D inside the domain"])
@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_values_outside_domain_forced_zero(domain, support, kind):
    """The constructor keeps a stored value exactly where its index lies in the
    domain, whether or not it builds a mask for the box."""
    m = None if kind == "scalar" else 2
    rng = np.random.default_rng(7)
    vals = rng.normal(size=support.shape + value_shape(kind, m)) + 1j
    f = SequenceTable(domain, support, vals, kind, m)
    for k in support.points():
        stored = vals[tuple(c - a for c, a in zip(k, support.lo))]
        assert np.array_equal(f.at(k), stored if k in domain else 0 * stored)


def test_envelope_check():
    env = Envelope(1.0, (0.5,))
    vals = 0.5 ** np.arange(5)
    f = SequenceTable(nonneg_orthant(1), Box((0,), (4,)), vals, envelope=env)
    assert f.envelope_ok()
    bad = SequenceTable(
        nonneg_orthant(1), Box((0,), (4,)), vals * 3.0, envelope=env
    )
    assert not bad.envelope_ok()


def test_envelope_pair_rates():
    env = Envelope(1.0, ((2.0, 0.5),))
    assert env.bound((3,)) == pytest.approx(0.5**3)
    assert env.bound((-3,)) == pytest.approx(2.0**-3)


@pytest.mark.parametrize("rate, doc", [(0.5, 0.5), ((2.0, 0.5), [2.0, 0.5])], ids=["scalar", "pair"])
def test_envelope_sides_is_the_rate_pair(rate, doc):
    env = Envelope(1.0, (rate, 0.25))
    assert env.sides == ((2.0, 0.5) if doc != 0.5 else (0.5, 0.5), (0.25, 0.25))
    assert env.rates == (rate, 0.25)
    assert env == Envelope(1.0, (doc, 0.25)) and hash(env) == hash(Envelope(1.0, (doc, 0.25)))
    assert repr(env) == f"Envelope(M=1.0, rates=({rate!r}, 0.25))"
    f = SequenceTable(FullLattice(2), Box((0, 0), (1, 1)), np.ones((2, 2)), envelope=env)
    assert emit(f)["envelope"] == {"M": 1.0, "rates": [doc, 0.25]}


def test_table_rejects_nonfinite():
    with pytest.raises(ValueError):
        SequenceTable(nonneg_orthant(1), Box((0,), (1,)), np.array([1.0, np.nan]))


def test_tables_immutable():
    f = SequenceTable.delta(1)
    with pytest.raises(ValueError):
        f.values[(0,)] = 5.0


# ---------------------------------------------------------------------------
# Ingest / emit
# ---------------------------------------------------------------------------


def test_roundtrip_scalar_with_envelope():
    f = SequenceTable.from_function(
        nonneg_orthant(2),
        Box((0, 0), (2, 3)),
        lambda k: complex(k[0], -k[1]),
        envelope=Envelope(10.0, (1.0, 1.0)),
    )
    doc = emit(f)
    g = ingest(json.loads(json.dumps(doc)))
    assert np.array_equal(f.values, g.values)
    assert g.envelope.M == 10.0
    assert emit(g) == doc


def test_roundtrip_matrix_blocks():
    f = SequenceTable.from_function(
        nonneg_orthant(1),
        Box((0,), (2,)),
        lambda k: np.array([[k[0], 1.0], [0.0, -k[0]]]),
        "matrix",
        2,
    )
    g = ingest(emit(f))
    assert g.value_kind == "matrix" and g.m == 2
    assert np.array_equal(np.asarray(g.at((2,))), np.array([[2, 1], [0, -2]]))


def test_roundtrip_two_sided_rates():
    env = Envelope(2.0, ((2.0, 0.5),))
    f = SequenceTable.from_function(
        FullLattice(1), Box((-3,), (3,)), lambda k: 0.5 ** abs(k[0]), envelope=env
    )
    g = ingest(emit(f))
    assert g.envelope.rates == ((2.0, 0.5),)


@pytest.mark.parametrize(
    "domain",
    [Box((-1, 0), (1, 2)), Shifted(nonneg_orthant(2), (-1, 1)),
     FiniteSet(((0, 0), (1, 2), (-1, 1)))],
    ids=["box", "shifted", "finite"],
)
def test_roundtrip_domains(domain):
    f = SequenceTable.from_function(domain, Box((-1, 0), (2, 3)), lambda k: complex(k[0], k[1]))
    doc = emit(f)
    g = ingest(json.loads(json.dumps(doc)))
    assert g.domain == f.domain and g.support == f.support
    assert np.array_equal(g.values, f.values) and emit(g) == doc


def test_ingest_rejects_bad_length():
    doc = emit(SequenceTable.delta(1))
    doc["values"] = doc["values"] + [[0.0, 0.0]]
    with pytest.raises(SchemaError):
        ingest(doc)


def test_ingest_rejects_nonfinite():
    doc = emit(SequenceTable.delta(1))
    doc["values"] = [[math.inf, 0.0]]
    with pytest.raises(SchemaError):
        ingest(doc)


def test_ingest_rejects_dim_mismatch():
    doc = emit(SequenceTable.delta(2))
    doc["n"] = 1
    with pytest.raises(SchemaError):
        ingest(doc)


@given(
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_roundtrip_random(n, span, seed):
    rng = np.random.default_rng(seed)
    lo = tuple(int(v) for v in rng.integers(-2, 3, size=n))
    hi = tuple(a + span for a in lo)
    shape = tuple(span + 1 for _ in range(n))
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    f = SequenceTable(FullLattice(n), Box(lo, hi), vals)
    g = ingest(emit(f))
    assert np.array_equal(f.values, g.values)
    assert g.domain == f.domain and g.support == f.support


@pytest.mark.parametrize("m", [1, 2])
def test_value_norms_of_non_finite_matrices(m):
    # the closed forms give inf for an inf entry and nan for a nan entry
    M = np.zeros((4, m, m), dtype=complex)
    M[:, 0, 0] = [np.inf, complex(1.0, -np.inf), np.nan, 0.0]
    M[:, -1, -1] += m - 1
    assert np.all(np.isposinf(value_norms(M[:2], 2)))
    assert value_norm(M[0]) == math.inf
    assert np.isnan(value_norms(M[2], 2))
    assert value_norms(M[3], 2) == m - 1


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e300])
def test_value_norms_of_2x2_matrices_at_extreme_scales(scale):
    M = scale * np.array([[1.0, 2.0], [3.0, 4.0j]])
    ref = np.linalg.svd(M / scale, compute_uv=False)[0] * scale
    assert abs(value_norm(M) - ref) <= 1e-14 * ref
    assert value_norms(M[None], 2)[0] == value_norm(M)


def test_value_norms_of_subnormal_2x2_matrices():
    # scaled up by 2^1040, in two steps: 2^1040 itself is past the float range
    M = 2.0**-1040 * np.array([[1.0, 2.0], [3.0, 4.0j]])
    ref = np.linalg.svd(M * 2.0**520 * 2.0**520, compute_uv=False) * 2.0**-1040
    assert value_norm(M) == pytest.approx(ref[0], rel=1e-9)  # a subnormal result keeps ~34 bits
    assert value_norms(M[None], 2)[0] == value_norm(M)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e300])
def test_value_norms_of_vectors_at_extreme_scales(scale):
    v = scale * np.array([1.0, 2.0j, -3.0 + 1.0j])
    ref = np.linalg.norm(v / scale) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(value_norm(v) - ref) <= 1e-14 * ref
        assert value_norms(v[None], 1)[0] == value_norm(v)


def test_value_norms_of_non_finite_vectors():
    v = np.array([[np.inf, 1.0], [complex(1.0, -np.inf), np.nan], [np.nan, np.nan]])
    norms = value_norms(v, 1)
    assert np.all(np.isposinf(norms[:2])) and np.isnan(norms[2])
