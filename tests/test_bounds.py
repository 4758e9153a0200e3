"""Every reported bound is a bound.

Tables whose values equal their envelope, M * b(k), on the whole domain are
stored on a small sub-box.  The reference sums the same sequence over a long
box that covers the domain far out, in long double, so its own rounding is
negligible.  All terms are positive, so the difference between the reference
and the library's result is part of the true truncation error, and the
reported tail bound or ledger must be at least that difference, up to the
float64 rounding of the library's short sums and envelope sums: ROUND unit
roundoffs per stored term, times the sum of the moduli of the terms.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlattice.convolution import conv_axes, conv_general
from zlattice.errors import DivergentConvolution
from zlattice.fixtures import first_order_pencil
from zlattice.lattice import (
    Box,
    Envelope,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    axis_interval,
    nonneg_orthant,
)
from zlattice.solver import OperatorPencil, green_function
from zlattice.ztransform import _log_run, eval_forward, forward_evaluator, invert_contour

SLACK = 1 + 1e-12
ROUND = 4 * 2.0**-52
RATES = ((2.0, 0.5), (1.5, 0.8), (3.0, 1.2), (1.25, 0.9))


def envelope_values(env, box, dtype=float):
    """M * prod_i b_i(k_i) over the box, without the library's own helpers."""
    out = np.full((), env.M, dtype=dtype)
    for (r_neg, r_pos), lo, hi in zip(env.rates, box.lo, box.hi):
        k = np.arange(lo, hi + 1)
        r = np.where(k >= 0, r_pos, r_neg).astype(dtype)
        out = np.multiply.outer(out, r**k)
    return out


def stored_on(domain, env, box):
    return SequenceTable(domain, box, envelope_values(env, box), envelope=env)


def slack(table, moduli):
    """The float64 rounding allowed for the library's sums over ``table``."""
    return ROUND * (table.values.size + table.dim) * moduli


def ref_forward(env, box, z):
    """sum over the box of M b(k) prod_i z_i^(-k_i) at every node of the
    open mesh z, in long double; nodes in mesh order."""
    acc = envelope_values(env, box, np.longdouble)
    for lo, hi, zi in zip(box.lo, box.hi, z):
        k = np.arange(lo, hi + 1)[:, None]
        acc = np.tensordot(acc, np.asarray(zi, np.clongdouble).reshape(1, -1) ** -k, axes=(0, 0))
    return acc


def ref_conv(a_vals, a_lo, b_vals, b_lo, window):
    """sum over l of a(k - l) b(l) at every k of the window, where a and b
    are dense arrays over boxes starting at a_lo and b_lo."""
    out = np.zeros(window.shape, dtype=np.result_type(a_vals, b_vals))
    for idx in np.ndindex(*window.shape):
        sl_a, sl_b = [], []
        for i, (w_lo, alo, blo) in enumerate(zip(window.lo, a_lo, b_lo)):
            k = w_lo + idx[i]
            lo = max(blo, k - (alo + a_vals.shape[i] - 1))
            hi = min(blo + b_vals.shape[i] - 1, k - alo)
            if lo > hi:
                break
            sl_b.append(slice(lo - blo, hi - blo + 1))
            stop = k - hi - alo - 1  # a's index runs down from k - lo to k - hi
            sl_a.append(slice(k - lo - alo, None if stop < 0 else stop, -1))
        else:
            out[idx] = np.sum(a_vals[tuple(sl_a)] * b_vals[tuple(sl_b)])
    return out


@st.composite
def envelope_tables(draw, n, reach):
    """(table, long box): one sequence M b(k) on an orthant, a shifted orthant
    or the full lattice, stored on a small box, and a box out to ``reach``."""
    kind = draw(st.sampled_from(("shifted", "orthant", "full")))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    if kind == "full":
        domain = FullLattice(n)
    elif kind == "orthant":
        domain = Orthant(signs)
    else:
        domain = Shifted(Orthant(signs), tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    rates = tuple(draw(st.sampled_from(RATES)) for _ in range(n))
    env = Envelope(draw(st.sampled_from((0.5, 2.0))), rates)
    lo, hi, s_lo, s_hi = [], [], [], []
    for i in range(n):
        d_lo, d_hi = axis_interval(domain, i)
        lo.append(-reach if d_lo is None else d_lo)
        hi.append(reach if d_hi is None else d_hi)
        a = min(max(draw(st.integers(-4, 3)), lo[-1]), hi[-1])
        s_lo.append(a)
        s_hi.append(min(a + draw(st.integers(0, 4)), hi[-1]))
    return stored_on(domain, env, Box(tuple(s_lo), tuple(s_hi))), Box(tuple(lo), tuple(hi))


@given(st.data(), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_forward_tail_bound_covers_the_unstored_terms(data, n):
    f, long = data.draw(envelope_tables(n, 400 if n == 1 else 120))
    nodes = []
    for r_neg, r_pos in f.envelope.rates:
        # inside r_pos < |z| < r_neg, which every domain kind admits
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
        phase = data.draw(st.floats(0.0, 2 * np.pi))
        nodes.append((1.1 * r_pos + (0.9 * r_neg - 1.1 * r_pos) * u) * np.exp(1j * phase))
    z = np.ix_(*nodes)
    val, tail = eval_forward(f, z, with_tail=True)
    err = np.abs(ref_forward(f.envelope, long, z) - val)
    moduli = ref_forward(f.envelope, f.support, tuple(np.abs(zi) for zi in z)).real
    assert np.all(err <= tail * SLACK + slack(f, moduli))


@st.composite
def windows_near(draw, box, reach):
    lo = tuple(
        draw(st.integers(max(a - 3, -reach), min(b + 3, reach))) for a, b in zip(box.lo, box.hi)
    )
    return Box(lo, tuple(c + draw(st.integers(0, 3)) for c in lo))


def long_values(f, box):
    return envelope_values(f.envelope, box, np.longdouble)


@given(st.data(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_conv_general_ledger_covers_the_unstored_terms(data, n):
    reach = 150 if n == 1 else 30
    a, a_long = data.draw(envelope_tables(n, reach))
    b, b_long = data.draw(envelope_tables(n, reach))
    lo = tuple(x + y for x, y in zip(a.support.lo, b.support.lo))
    hi = tuple(x + y for x, y in zip(a.support.hi, b.support.hi))
    window = data.draw(windows_near(Box(lo, hi), reach))
    out, ledger = conv_general(a, b, window, enforce=False, return_ledger=True)
    ref = ref_conv(long_values(a, a_long), a_long.lo, long_values(b, b_long), b_long.lo, window)
    small = a if a.values.size < b.values.size else b
    assert np.all(np.abs(ref - out.values) <= ledger * SLACK + slack(small, ref))


@given(st.data(), st.sampled_from(((1, (1,)), (2, (1,)), (2, (2,)), (2, (1, 2)))))
@settings(max_examples=60, deadline=None)
def test_conv_axes_ledger_covers_the_unstored_terms(data, shape):
    n, axes = shape
    reach = 150 if n == 1 else 30
    a, a_long = data.draw(envelope_tables(len(axes), reach))
    b, b_long = data.draw(envelope_tables(n, reach))
    lo, hi = list(b.support.lo), list(b.support.hi)
    for i, j in enumerate(axes):
        lo[j - 1] += a.support.lo[i]
        hi[j - 1] += a.support.hi[i]
    # the window often lies past b's stored box on a pass-through axis
    window = data.draw(windows_near(Box(tuple(lo), tuple(hi)), reach))
    out, ledger = conv_axes(a, b, axes, window, enforce=False, return_ledger=True)
    # the reference convolves with a on all n axes, the unit kernel (1 at 0)
    # on the pass-through ones
    a_ref = long_values(a, a_long).reshape(
        tuple(a_long.shape[axes.index(j)] if j in axes else 1 for j in range(1, n + 1))
    )
    a_lo = tuple(a_long.lo[axes.index(j)] if j in axes else 0 for j in range(1, n + 1))
    ref = ref_conv(a_ref, a_lo, long_values(b, b_long), b_long.lo, window)
    assert np.all(np.abs(ref - out.values) <= ledger * SLACK + slack(a, ref))


def enveloped_evaluator(domain, env, box):
    """The evaluator of M b(k) stored on the box (within the domain), with the
    envelope and domain the aliasing bound reads."""
    f = stored_on(FullLattice(domain.dim), env, box)
    return replace(forward_evaluator(f), sequence_envelope=env, sequence_domain=domain), f


def stored_values(f, window):
    """f on the window: its stored values, 0 outside its stored box."""
    out = np.zeros(window.shape, dtype=f.values.dtype)
    lo = [max(a, b) for a, b in zip(f.support.lo, window.lo)]
    hi = [min(a, b) for a, b in zip(f.support.hi, window.hi)]
    if all(a <= b for a, b in zip(lo, hi)):
        out[tuple(slice(a - w, b - w + 1) for a, b, w in zip(lo, hi, window.lo))] = f.values[
            tuple(slice(a - s, b - s + 1) for a, b, s in zip(lo, hi, f.support.lo))
        ]
    return out


@st.composite
def inversion_cases(draw, n):
    """(domain, envelope, stored box, radii, grid, window): an orthant of
    either sign, shifted by either sign, the full lattice or a box; radii
    inside the envelope's ring; per axis a grid down to span + 1 and a window
    up to 3N from the domain's edge; the sequence stored 3N + 12 beyond it."""
    kind = draw(st.sampled_from(("orthant", "shifted", "full", "box")))
    if kind == "box":
        lo = tuple(draw(st.integers(-6, 3)) for _ in range(n))
        domain = Box(lo, tuple(a + draw(st.integers(0, 40)) for a in lo))
    elif kind == "full":
        domain = FullLattice(n)
    else:
        domain = Orthant(tuple(draw(st.sampled_from((1, -1))) for _ in range(n)))
        if kind == "shifted":
            domain = Shifted(domain, tuple(draw(st.integers(-6, 6)) for _ in range(n)))
    rates = tuple(draw(st.sampled_from(RATES)) for _ in range(n))
    radii, grid, w_lo, w_hi, s_lo, s_hi = [], [], [], [], [], []
    for i, (r_neg, r_pos) in enumerate(rates):
        radii.append(r_pos * (r_neg / r_pos) ** draw(st.sampled_from((0.1, 0.5, 0.9))))
        span = draw(st.integers(0, 3))
        N = draw(st.integers(span + 1, 12 if n == 1 else 8))
        d_lo, d_hi = axis_interval(domain, i)
        edge = d_lo if d_lo is not None else (d_hi if d_hi is not None else 0)
        w_lo.append(edge + draw(st.integers(-3 * N, 3 * N)))
        w_hi.append(w_lo[-1] + span)
        reach = 3 * N + 12
        s_lo.append(w_lo[-1] - reach if d_lo is None else max(d_lo, w_lo[-1] - reach))
        s_hi.append(w_hi[-1] + reach if d_hi is None else min(d_hi, w_hi[-1] + reach))
        grid.append(N)
    env = Envelope(draw(st.sampled_from((0.5, 2.0))), rates)
    box = Box(tuple(s_lo), tuple(s_hi))
    return domain, env, box, tuple(radii), tuple(grid), Box(tuple(w_lo), tuple(w_hi))


@given(st.data(), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_inversion_ledger_covers_the_wrap_around(data, n):
    domain, env, box, radii, grid, window = data.draw(inversion_cases(n))
    F, f = enveloped_evaluator(domain, env, box)
    res = invert_contour(F, radii, window, grid=grid)
    err = np.abs(res.table.values - stored_values(f, window))
    # the samples' own rounding, mapped to the coefficients by the weights r^k
    moduli = ref_forward(env, box, radii).real
    ks = (np.arange(a, b + 1.0) for a, b in zip(window.lo, window.hi))
    weights = math.prod(np.ix_(*(R**k for R, k in zip(radii, ks))))
    assert np.all(err <= res.aliasing * SLACK + slack(f, moduli) * weights)


@pytest.mark.parametrize("grid", [(1,), (2,), (3,), (16,), (17,), (64,), (97,), (3, 3), (16, 16), (17, 8)])
@pytest.mark.parametrize("R", [0.8, 1.25])
def test_rounding_allowance_covers_an_inversion_without_wrap_around(grid, R):
    # coefficients R^k e^(i phase) on a box that one period of the grid holds:
    # nothing wraps around, so the ledger is the rounding allowance alone
    n = len(grid)
    box = Box((0,) * n, tuple(N - 1 for N in grid))
    phase = np.random.default_rng(sum(grid)).uniform(0.0, 2 * np.pi, box.shape)
    vals = math.prod(np.ix_(*(R ** np.arange(N, dtype=float) for N in grid))) * np.exp(1j * phase)
    f = SequenceTable(FullLattice(n), box, vals)
    F = replace(forward_evaluator(f), sequence_envelope=Envelope(1.0, (R,) * n), sequence_domain=box)
    res = invert_contour(F, (R,) * n, box, grid=grid)
    assert np.all(np.abs(res.table.values - vals) <= res.aliasing)


# ---------------------------------------------------------------------------
# Reproductions of bounds that once under-reported
# ---------------------------------------------------------------------------


def test_shifted_orthant_tail_bound_covers_indices_below_zero():
    # the domain starts at k = -3; the stored box 0:5 misses k = -3..-1
    f = SequenceTable(
        Shifted(nonneg_orthant(1), (-3,)), Box((0,), (5,)), 0.5 ** np.arange(6.0),
        envelope=Envelope(1.0, (0.5,)),
    )
    _, tail = eval_forward(f, (2.0,), with_tail=True)
    true = sum(0.25**k for k in range(-3, 0)) + 0.25**6 / 0.75
    assert true == pytest.approx(84.0003255)
    assert true <= tail * SLACK


def test_axes_ledger_covers_pass_through_indices_past_the_stored_box():
    k = np.arange(4.0)
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.3 ** np.arange(6.0), envelope=Envelope(1.0, (0.3,))
    )
    b = SequenceTable(
        nonneg_orthant(2), Box((0, 0), (3, 3)), 0.5 ** np.add.outer(k, k),
        envelope=Envelope(1.0, (0.5, 0.5)),
    )
    # k2 = 4..6 lies past b's stored box on the pass-through axis
    window = Box((0, 0), (3, 6))
    out, ledger = conv_axes(a, b, (1,), window, enforce=False, return_ledger=True)
    kl = np.arange(200.0)
    ref = conv_axes(
        SequenceTable(nonneg_orthant(1), Box((0,), (199,)), 0.3**kl, envelope=a.envelope),
        SequenceTable(nonneg_orthant(2), Box((0, 0), (199, 199)), 0.5 ** np.add.outer(kl, kl),
                      envelope=b.envelope),
        (1,), window, enforce=False,
    )
    err = np.abs(ref.values - out.values)
    assert err[:, 4:].max() == pytest.approx(0.0625)
    assert np.all(err <= ledger * SLACK)
    with pytest.raises(DivergentConvolution):
        conv_axes(a, b, (1,), window)


def test_far_window_on_the_decaying_side_has_a_finite_ledger():
    # sum_l 0.3^(k-l) b(l) with b(l) = 0.5^l for l >= 0: the tail is about
    # 2.33e-301 at k = 1000 and below the float range at k = 1400
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.3 ** np.arange(6.0), envelope=Envelope(1.0, (0.3,))
    )
    b = SequenceTable(
        FullLattice(1), Box((0,), (2,)), np.array([1.0, 0.5, 0.25]),
        envelope=Envelope(1.0, ((2.0, 0.5),)),
    )
    _, ledger = conv_general(a, b, Box((1000,), (1000,)), enforce=False, return_ledger=True)
    true = 0.5**1000 * sum(0.6**j for j in range(400))
    assert true == pytest.approx(2.333e-301, rel=1e-3)
    assert true <= ledger[0] * SLACK
    _, ledger = conv_general(a, b, Box((1400,), (1400,)), return_ledger=True)
    assert np.all(np.isfinite(ledger)) and np.all(ledger >= 0)


def test_divergent_run_under_a_vanishing_scale_is_inf_not_nan():
    # for l < 0, a(k - l) b(l) = 0.5^k: a ratio of exactly 1 over an infinite
    # run, so the tail diverges, while 0.5^1100 underflows to 0
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.5 ** np.arange(6.0), envelope=Envelope(1.0, (0.5,))
    )
    b = SequenceTable(
        FullLattice(1), Box((0,), (2,)), 0.25 ** np.arange(3.0),
        envelope=Envelope(1.0, ((0.5, 0.25),)),
    )
    window = Box((1100,), (1100,))
    _, ledger = conv_general(a, b, window, enforce=False, return_ledger=True)
    assert np.isinf(ledger[0])
    with pytest.raises(DivergentConvolution):
        conv_general(a, b, window)


def test_ledger_covers_a_window_far_from_the_domain_start():
    # 0.5^k on N0, window 100:104 on the default grid of 24: f(4..8), f(28..32),
    # ... fold into it, and the aliases below the window dominate
    f = SequenceTable(
        nonneg_orthant(1), Box((0,), (120,)), 0.5 ** np.arange(121.0), envelope=Envelope(1.0, (0.5,))
    )
    res = invert_contour(forward_evaluator(f), (1.0,), Box((100,), (104,)))
    assert res.grid == (24,)
    err = np.abs(res.table.values - 0.5 ** np.arange(100, 105.0))
    assert err[0] == pytest.approx(0.0625)
    assert np.all(err <= res.aliasing)


def test_aliasing_counts_wraps_below_zero_on_a_shifted_orthant():
    # the domain starts at k = -40: f(-24) = 2^24 folds into k = 0
    f = SequenceTable(
        Shifted(nonneg_orthant(1), (-40,)), Box((-40,), (120,)), 0.5 ** np.arange(-40, 121.0),
        envelope=Envelope(1.0, (0.5,)),
    )
    res = invert_contour(forward_evaluator(f), (1.0,), Box((0,), (4,)))
    err = np.abs(res.table.values - 0.5 ** np.arange(5.0))
    assert err.max() == pytest.approx(2.0**24)
    assert np.all(err <= res.aliasing)


def green_error(radius, window, grid=None):
    """|G - lam^(k-1)| for the scalar pencil z - 1/2, and its ledger."""
    K = green_function(first_order_pencil(0.5), (radius,), window, grid=grid)
    k = np.arange(window.lo[0], window.hi[0] + 1.0)
    true = np.where(k >= 1, 0.5 ** (k - 1), 0.0)
    return np.abs(K.table.values.reshape(-1) - true), K.aliasing.reshape(-1)


# z^-1 - 1/2 z^-2, whose Green kernel 0.5^(k+1) starts at k = j* = -1, off N0
SHIFTED_HALF = OperatorPencil(1, 1, (((-1,), np.eye(1)), ((-2,), -0.5 * np.eye(1))), np.eye(1))


@pytest.mark.parametrize(
    "S, start, radius, window, grid",
    [
        # on 30:40 the kernel values near k = 1 (G(1) = 1) wrap into the window of 36 nodes
        (first_order_pencil(0.5), 1, 1.0, Box((30,), (40,)), (36,)),
        (first_order_pencil(0.5), 1, 1.0, Box((-2,), (8,)), None),
        (SHIFTED_HALF, -1, 0.52, Box((0,), (30,)), None),
    ],
    ids=["short-grid", "two-sided", "no-operator"],
)
def test_uncertified_green_kernel_has_ledger_inf_and_the_cauchy_envelope(
        S, start, radius, window, grid):
    # G(k) = 0.5^(k - start) for k >= start; no certificate: ledger inf, and
    # ||G(k)|| <= max ||M(z)^-1|| ||C|| R^k over the contour's nodes
    kr = green_function(S, (radius,), window, grid=grid)
    k = np.arange(window.lo[0], window.hi[0] + 1.0)
    err = np.abs(kr.table.values.reshape(-1) - np.where(k >= start, 0.5 ** (k - start), 0.0))
    assert grid is None or err.max() == pytest.approx(1.0)
    assert np.all(err <= kr.aliasing) and np.all(np.isinf(kr.aliasing))
    assert kr.table.envelope == Envelope(kr.contour_max, (radius,))
    assert kr.table.envelope_ok()


def test_green_kernel_ledger_covers_the_rounding_under_an_exact_envelope():
    # the grid of 136 nodes covers the box 0:60, so the residual certifies the
    # contour's kernel at radius 0.6, and its ledger must carry the inverse FFT's
    # rounding where the kernel is otherwise exact
    err, ledger = green_error(0.6, Box((0,), (60,)), grid=(136,))
    assert np.all(err <= ledger)


@pytest.mark.parametrize(
    "radius, window",
    [
        (1.0, Box((30,), (40,))),  # the contour's window away from the origin
        (0.6, Box((0,), (60,))),  # the contour's exact envelope
        (0.52, Box((0,), (30,))),  # a radius close to the pole at 0.5
    ],
)
def test_series_green_kernel_ledger_bounds_the_error(radius, window):
    # theta = 0.5 / radius < 1: the certified orthant kernel is a power series
    err, ledger = green_error(radius, window)
    assert np.all(err <= ledger) and np.all(ledger <= 1e-10)


# ---------------------------------------------------------------------------
# The geometric-run primitive
# ---------------------------------------------------------------------------


def exact_log_run(a, b, log_g, log_scale):
    """log sum_{m=a}^{b} e^(log_scale + m log_g) of the float arguments, from
    the closed form in 60-digit mpmath: -inf when empty, inf when divergent."""
    with mp.workdps(60):
        g, s = mp.mpf(log_g), mp.mpf(log_scale)
        if a > b:
            return -mp.inf
        if (b == math.inf and g >= 0) or (a == -math.inf and g <= 0):
            return mp.inf
        if g == 0:
            return s + mp.log(b - a + 1)
        n, u = b - a + 1, mp.expm1(-abs(g))
        return s + (b if g > 0 else a) * g + mp.log(-1 / u if n == math.inf else mp.expm1(-n * abs(g)) / u)


@st.composite
def geometric_runs(draw):
    """(a, b, log_g, log_scale): ratios far from 1, near it and exactly 1 (a
    normal log_g or 0, as ``_log_run`` requires); log scales near the float
    range; empty, short, long, infinite and divergent runs, each with its
    largest term at an end between -40 and 40."""
    tiny = st.floats(1e-16, 1e-6).map(lambda x: x * (-1) ** int(1e20 * x))
    log_g = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_subnormal=False), tiny))
    log_scale = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(600.0, 700.0), st.floats(-740.0, -600.0)))
    kind = draw(st.sampled_from(("empty", "short", "long", "infinite", "divergent")))
    top = draw(st.integers(-40, 40))
    if kind == "empty":
        return top, top - draw(st.integers(1, 5)), log_g, log_scale
    if kind == "divergent":
        ends = (top, math.inf) if log_g > 0 or (log_g == 0 and top % 2) else (-math.inf, top)
        return (*ends, log_g, log_scale)
    n = {"short": draw(st.integers(1, 40)), "long": draw(st.integers(41, 10**6)), "infinite": math.inf}[kind]
    return (*((top - n + 1, top) if log_g > 0 else (top, top + n - 1)), log_g, log_scale)


def assert_bounds_the_run(bound, a, b, log_g, log_scale):
    exact = exact_log_run(a, b, log_g, log_scale)
    if mp.isinf(exact):
        assert bound == float(exact)
    elif b - a < 40 and abs(log_scale) <= 5:  # the explicit terms in floats, summed exactly
        true = math.fsum(math.exp(log_scale + m * log_g) for m in range(a, b + 1))
        assert true <= math.exp(bound) <= (1 + 1e-12) * true
    else:
        assert exact <= bound <= exact + math.log1p(1e-12)


@given(st.lists(geometric_runs(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_log_run_bounds_the_exact_sum(cases):
    batch = _log_run(*(np.array(x, dtype=float) for x in zip(*cases)))
    for case, elementwise in zip(cases, batch):
        for bound in (_log_run(*case), float(elementwise)):  # Python numbers, then arrays
            assert_bounds_the_run(bound, *case)
