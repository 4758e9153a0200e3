"""Forward multidimensional Z-transform, region bookkeeping, and contour inversion.

The forward transform of a stored table is the finite sum over its support,
F(z) = sum_k f(k) z^(-k).  Tables with a decay envelope stand in for infinite
sequences; for those the evaluation can report a closed-form geometric bound on
the unstored tail.  Inversion samples polycircles uniformly per axis, which is
the trapezoid rule for the polycircle integral and is realized here as an
inverse DFT with per-axis radius weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    BoundaryNotFinite,
    CircleOutsideRegion,
    DimensionMismatch,
    EvaluatorFailure,
    NoEnvelope,
    PointOutsideRegion,
    ShiftLeavesDomain,
    SingularSymbol,
    TwoSidedAxisWithoutRingRates,
    ZeroCoordinate,
)
from .lattice import (
    Box,
    Envelope,
    FullLattice,
    Orthant,
    SequenceTable,
    Shifted,
    axis_interval,
    domain_mask,
    value_shape,
)

# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outside:
    """|z| > r."""

    r: float

    def holds(self, mod):
        return mod > self.r


@dataclass(frozen=True)
class Inside:
    """|z| < r."""

    r: float

    def holds(self, mod):
        return (0 < mod) & (mod < self.r)


@dataclass(frozen=True)
class Ring:
    """r_lo < |z| < r_hi."""

    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (0 < self.r_lo < self.r_hi):
            raise ValueError("ring requires 0 < r_lo < r_hi")

    def holds(self, mod):
        return (self.r_lo < mod) & (mod < self.r_hi)


AxisConstraint = Union[Outside, Inside, Ring]


@dataclass(frozen=True)
class PolyAnnulus:
    """Product of per-axis modulus constraints; rotation-invariant per axis."""

    axes: tuple[AxisConstraint, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def contains(self, z) -> bool:
        """Whether the point, or every node of an open mesh, lies in the region."""
        if len(z) != self.dim:
            raise DimensionMismatch("region/point dimension mismatch")
        return all(bool(np.all(c.holds(np.abs(zi)))) for c, zi in zip(self.axes, z))


@dataclass(frozen=True)
class CustomRegion:
    """Region defined by a caller-provided predicate on the moduli tuple.

    Needed when the convergence geometry is not a product of annuli, e.g.
    |z1 * z2| > a for diagonal sequences.
    """

    dim: int
    predicate: Callable[[tuple[float, ...]], bool]

    def contains(self, z: Sequence[complex]) -> bool:
        if len(z) != self.dim:
            raise DimensionMismatch("region/point dimension mismatch")
        return bool(self.predicate(tuple(abs(zi) for zi in z)))


Region = Union[PolyAnnulus, CustomRegion]


@dataclass
class TransformEvaluator:
    """A transform evaluator, with its declared region of validity.

    ``fn(z)`` takes z as n complex arrays in open-mesh layout: coordinate i
    varies along dimension i only, as ``np.ix_`` builds it.  It returns
    values that broadcast to the mesh shape followed by the value shape
    (``()``, ``(m,)`` or ``(m, m)``).  A point is the degenerate mesh of
    scalars.  ``fn`` does no region check; calling the evaluator itself is the
    region-checked point call, and returns a ``complex`` for scalar kinds.

    ``sequence_envelope``/``sequence_sides`` optionally describe the decay of
    the underlying sequence ('+' for an N0 axis, '-' for -N0, 'z' for a
    two-sided axis); contour inversion uses them to bound aliasing.
    """

    fn: Callable[[tuple[complex, ...]], object]
    region: Region
    value_kind: str = "scalar"
    m: int | None = None
    sequence_envelope: Envelope | None = None
    sequence_sides: tuple[str, ...] | None = None

    @property
    def dim(self) -> int:
        return self.region.dim

    def __call__(self, z):
        z = tuple(complex(c) for c in z)
        if not self.region.contains(z):
            raise PointOutsideRegion(f"{z} outside declared region")
        out = self.fn(z)
        return complex(out) if self.value_kind == "scalar" else out


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------


def _mesh(z) -> tuple:
    """Coordinates as complex numbers (a point) or complex arrays (a mesh)."""
    return tuple(complex(c) if np.ndim(c) == 0 else np.asarray(c, dtype=complex) for c in z)


def _check_powers(f: SequenceTable, z) -> None:
    for i, zi in enumerate(z):
        # an enveloped table's tail runs to the upper end of its domain
        top = axis_interval(f.domain, i)[1] if f.envelope is not None else f.support.hi[i]
        if np.any(zi == 0) and (top is None or max(top, f.support.hi[i]) > 0):
            # 0^(-k) undefined for positive k; 0^k fine for k >= 0.
            raise ZeroCoordinate(f"z[{i}] = 0 with positive indices on axis {i}")


def _base(d):
    """The domain with its shifts removed."""
    while isinstance(d, Shifted):
        d = d.base
    return d


def domain_sides(f: SequenceTable) -> tuple[str, ...]:
    """Per-axis character of the domain: '+' (bounded below only), '-'
    (bounded above only) or 'z' (two-sided, or bounded on both ends)."""
    sides = {(False, True): "+", (True, False): "-"}  # keyed by (lo open, hi open)
    ends = (axis_interval(f.domain, i) for i in range(f.dim))
    return tuple(sides.get((lo is None, hi is None), "z") for lo, hi in ends)


def convergence_region(f: SequenceTable) -> PolyAnnulus:
    """Region implied by the envelope on a product (orthant / full) domain."""
    if f.envelope is None:
        raise NoEnvelope("convergence region needs a decay envelope")
    if not isinstance(_base(f.domain), (Orthant, FullLattice)):
        raise NoEnvelope("convergence region defined for orthant or full domains only")
    sides = domain_sides(f)
    axes = []
    for i, side in enumerate(sides):
        r = f.envelope.rates[i]
        if side == "+":
            axes.append(Outside(r[1] if isinstance(r, tuple) else r))
        elif side == "-":
            axes.append(Inside(r[0] if isinstance(r, tuple) else r))
        else:
            if not isinstance(r, tuple):
                raise TwoSidedAxisWithoutRingRates(
                    f"axis {i} is two-sided but envelope rate is one-sided"
                )
            r_neg, r_pos = r
            if not r_pos < r_neg:
                raise TwoSidedAxisWithoutRingRates(
                    f"axis {i}: need r_pos < r_neg for a non-empty ring"
                )
            axes.append(Ring(r_pos, r_neg))
    return PolyAnnulus(tuple(axes))


def _envelope_sum(r_neg, r_pos, lo, hi, log_scale=0.0):
    """exp(log_scale) * sum_{k=lo}^{hi} b(k), where b(k) = r_pos^k for k >= 0
    and r_neg^k for k < 0, elementwise over the broadcast of the arguments.

    An open end is None or an infinite bound.  Each side of 0 is a geometric
    run, formed as its largest term times a factor in [1, run length]; the
    term is computed in log space, so a scale beyond the float range may meet
    a run that underflows.  0 where the interval is empty; inf where a run
    diverges (whatever the scale) or the sum is beyond the float range.
    """
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    total = 0.0
    for r, a, b in ((r_neg, lo, np.minimum(hi, -1.0)), (r_pos, np.maximum(lo, 0.0), hi)):
        log_r = np.log(r)
        u = np.minimum(r, 1.0 / r)  # ratio of each term to its neighbour towards the top
        n = b - a + 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            top = np.where(log_r == 0, 0.0, np.where(log_r < 0, a, b) * log_r)
            factor = np.where(u == 1.0, n, (1.0 - u**n) / (1.0 - u))
            run = np.where(np.isinf(factor), math.inf, np.exp(log_scale + top) * factor)
            total = total + np.where(a > b, 0.0, run)
    return total[()]


def forward_tail_bound(f: SequenceTable, z):
    """Bound on the modulus of the transform tail beyond the stored window.

    Per axis, the envelope terms b(k) |z|^-k summed over the domain's
    admissible interval and over its stored part; the bound is M times the
    difference of their products over axes.  On an open mesh this is an
    outer product with one entry per node, at a point a float.  Raises if the
    point or a mesh node lies outside the convergence region.
    """
    if f.envelope is None:
        return 0.0
    z = _mesh(z)
    if not convergence_region(f).contains(z):
        raise PointOutsideRegion(f"{z} outside convergence region")
    full = stored = 1.0
    for i, zi in enumerate(z):
        r = f.envelope.rates[i]
        r_neg, r_pos = r if isinstance(r, tuple) else (r, r)
        lo, hi = axis_interval(f.domain, i)
        s_lo = f.support.lo[i] if lo is None else max(lo, f.support.lo[i])
        s_hi = f.support.hi[i] if hi is None else min(hi, f.support.hi[i])
        mod = np.abs(zi)
        full = full * _envelope_sum(r_neg / mod, r_pos / mod, lo, hi)
        stored = stored * _envelope_sum(r_neg / mod, r_pos / mod, s_lo, s_hi)
    out = f.envelope.M * np.maximum(full - stored, 0.0)
    return float(out) if np.ndim(out) == 0 else out


# An axis of L stored terms on N circle nodes is contracted by FFT when
# L * N > _FFT_CROSSOVER * N * log2(N).  A sweep of both paths over
# L = 2..10 log2(N) and N = 16..512 in 1-D and 2-D put the break-even near
# 2 log2(N) at N >= 176 and near 6 log2(N) at N = 32..36, where either path
# takes about 0.1-0.2 ms; 4 keeps the 2-D tables of span <= 10 on 32-36
# nodes on the direct path.
_FFT_CROSSOVER = 4.0


def _circle(r, N) -> np.ndarray:
    """The N nodes r e^(2 pi i t / N), t = 0..N-1, of a uniform circle."""
    return r * np.exp(2j * np.pi * np.arange(N) / N)


def _circle_radius(zi, L):
    """r when the coordinate array is exactly ``_circle(r, N)`` and an FFT
    over its N nodes beats the direct contraction of L terms, else None."""
    if zi.ndim == 0 or zi.size == 0 or L <= _FFT_CROSSOVER * math.log2(zi.size):
        return None
    flat = zi.reshape(-1)
    r = flat[0].real
    if flat[0].imag != 0 or not r > 0 or not np.array_equal(flat, _circle(r, flat.size)):
        return None
    return r


def _fold_fft(acc, w, start, N) -> np.ndarray:
    """sum_k w[k] acc[k] e^(-2 pi i t (start + k) / N) for t = 0..N-1: the
    weighted terms folded at (start + k) mod N, then one FFT; the node axis
    is appended last, as ``np.tensordot`` leaves it."""
    L = acc.shape[0]
    j0 = start % N
    rows = -(-(j0 + L) // N)
    buf = np.zeros((rows * N,) + acc.shape[1:], dtype=complex)
    buf[j0 : j0 + L] = w.reshape((L,) + (1,) * (acc.ndim - 1)) * acc
    folded = buf.reshape((rows, N) + acc.shape[1:]).sum(axis=0)
    return np.moveaxis(np.fft.fft(folded, axis=0), 0, -1)


def _power_sum(values, lo, z, v=None) -> np.ndarray:
    """sum_k c(k) values[k] z^(-k-v) over a dense box that starts at ``lo``.

    ``values`` has one lattice axis per coordinate of ``z``, then value axes;
    ``z`` is a point or an open mesh.  c(k) = prod_i (-k_i)(-k_i-1)...
    (-k_i-v_i+1) gives the termwise derivative of order v (c = 1 when v is
    None).  Each axis is contracted in turn, and the result has the mesh
    shape, then the value shape.  An axis whose coordinate is exactly a
    ``_circle`` grid r e^(2 pi i t / N), and whose stored length passes the
    crossover, is the FFT of c(k) r^(-k-v) values[k] folded at (k+v) mod N;
    any other axis, or one whose weights leave the float range, is one
    tensordot with the matrix c_i(k) z_i^(-k_i-v_i).
    """
    acc = np.asarray(values, dtype=complex)
    pos = []  # the mesh dimension each coordinate varies along
    for i, zi in enumerate(z):
        zi = np.asarray(zi, dtype=complex)
        vi = 0 if v is None else v[i]
        ks = np.arange(lo[i], lo[i] + acc.shape[0])[:, None]
        c = np.ones(ks.shape)
        for t in range(vi):
            c = c * (-ks - t)
        r = _circle_radius(zi, acc.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            w = None if r is None else c * r ** (-ks - vi)
        if w is not None and np.isfinite(w).all():
            acc = _fold_fft(acc, w, lo[i] + vi, zi.size)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(c != 0, c * zi.reshape(1, -1) ** (-ks - vi), 0.0)
            acc = np.tensordot(acc, w, axes=(0, 0))
        pos.append(int(np.argmax(zi.shape)) if zi.ndim else 0)
    vdim = acc.ndim - len(z)
    order = [vdim + i for i in np.argsort(pos, kind="stable")]
    acc = acc.transpose(order + list(range(vdim)))
    return acc.reshape(np.broadcast_shapes(*(np.shape(zi) for zi in z)) + acc.shape[len(z) :])


def eval_forward(f: SequenceTable, z, with_tail: bool = False):
    """F(z) = sum over the stored support of f(k) * prod z_i^(-k_i).

    z is a point or an open mesh (see ``TransformEvaluator``); a point gives
    a ``complex`` for scalar tables.  With an envelope present every node must
    lie in the convergence region and ``with_tail=True`` additionally returns
    the geometric tail bound.
    """
    z = _mesh(z)
    if len(z) != f.dim:
        raise DimensionMismatch("point dimension mismatch")
    _check_powers(f, z)
    tail = forward_tail_bound(f, z)  # also validates region membership
    out = _power_sum(f.values, f.support.lo, z)
    if f.value_kind == "scalar" and out.ndim == 0:
        out = complex(out)
    return (out, tail) if with_tail else out


def forward_evaluator(f: SequenceTable) -> TransformEvaluator:
    """Wrap a table as an evaluator with its natural region; ``fn`` is the
    power sum over the stored support."""
    env = f.envelope
    return TransformEvaluator(
        fn=lambda z: _power_sum(f.values, f.support.lo, z),
        region=convergence_region(f) if env is not None else PolyAnnulus((Outside(0.0),) * f.dim),
        value_kind=f.value_kind,
        m=f.m,
        sequence_envelope=env,
        sequence_sides=domain_sides(f) if env is not None else None,
    )


# ---------------------------------------------------------------------------
# Transform-side identities
# ---------------------------------------------------------------------------


def shift_identity(
    F: TransformEvaluator, f_window: SequenceTable, a
) -> TransformEvaluator:
    """Evaluator of the transform of k -> f(k+a), via the shifting identity.

    F_g(z) = z^a * [F_f(z) - sum over the boundary D \\ (a+D) of f(k) z^(-k)].
    The boundary sum is taken over stored window points; an envelope-bounded
    table with an unbounded boundary set is rejected.
    """
    a = tuple(int(c) for c in a)
    if len(a) != f_window.dim:
        raise DimensionMismatch("shift dimension mismatch")
    d = f_window.domain
    base = _base(d)
    if isinstance(base, Orthant):
        if any(s * ai < 0 for s, ai in zip(base.signs, a)):
            raise ShiftLeavesDomain(f"a + D not contained in D for a={a}")
    elif isinstance(base, FullLattice):
        pass
    elif any(ai != 0 for ai in a):
        raise ShiftLeavesDomain("shift identity needs a translation-closed domain")
    if (
        f_window.envelope is not None
        and f_window.dim > 1
        and any(ai != 0 for ai in a)
        and not isinstance(base, FullLattice)
    ):
        # D \ (a+D) is a union of slabs, unbounded for n >= 2 orthants.
        raise BoundaryNotFinite(
            "boundary set unbounded for an envelope-bounded multi-axis orthant"
        )
    # the boundary D \ (a+D) masks the window (entries outside D are stored as 0)
    sup, vdim = f_window.support, len(f_window.vshape)
    leaves = ~domain_mask(Shifted(d, a), sup)
    boundary = f_window.values * leaves.reshape(leaves.shape + (1,) * vdim)

    def fn(z):
        za = np.asarray(math.prod(zi**ai for zi, ai in zip(z, a)))
        acc = np.asarray(F.fn(z), dtype=complex) - _power_sum(boundary, sup.lo, z)
        return za.reshape(za.shape + (1,) * vdim) * acc

    return TransformEvaluator(fn, F.region, F.value_kind, F.m)


def modulation(f: SequenceTable, a) -> SequenceTable:
    """g(k) = prod a_i^{k_i} * f(k); transform satisfies F_g(z) = F_f(z/a)."""
    a = tuple(complex(c) for c in a)
    if len(a) != f.dim:
        raise DimensionMismatch("modulation dimension mismatch")
    if any(c == 0 for c in a):
        raise ValueError("modulation factors must be nonzero")
    env = None
    if f.envelope is not None:
        rates = []
        for r, ai in zip(f.envelope.rates, a):
            s = abs(ai)
            rates.append((r[0] * s, r[1] * s) if isinstance(r, tuple) else r * s)
        env = Envelope(f.envelope.M, tuple(rates))
    sup = f.support
    w = math.prod(np.ix_(*(ai ** np.arange(lo, hi + 1) for ai, lo, hi in zip(a, sup.lo, sup.hi))))
    vals = f.values * w.reshape(w.shape + (1,) * len(f.vshape))
    return SequenceTable(f.domain, f.support, vals, f.value_kind, f.m, env)


def separable_transform(factors: Sequence[SequenceTable]) -> TransformEvaluator:
    """Product evaluator for a tensor sequence f(k) = f_1(k_1)...f_n(k_n).

    All factors must be 1-D; only the last may be vector- or matrix-valued.
    """
    if any(f.dim != 1 for f in factors):
        raise DimensionMismatch("separable factors must be one-dimensional")
    if any(f.value_kind != "scalar" for f in factors[:-1]):
        raise ValueError("only the last separable factor may be non-scalar")
    axes = []
    for f in factors:
        if f.envelope is not None:
            axes.append(convergence_region(f).axes[0])
        else:
            axes.append(Outside(0.0))
    last = factors[-1]
    ones = (1,) * len(last.vshape)

    def fn(z):
        acc = _power_sum(last.values, last.support.lo, z[-1:])
        for f, zi in zip(factors[:-1], z):
            fa = _power_sum(f.values, f.support.lo, (zi,))
            acc = acc * fa.reshape(fa.shape + ones)
        return acc

    return TransformEvaluator(
        fn, PolyAnnulus(tuple(axes)), last.value_kind, last.m
    )


def derivative_series(f: SequenceTable, v, z):
    """Partial derivative d^v F / dz^v as a termwise-differentiated series,
    at a point or on an open mesh."""
    v = tuple(int(c) for c in v)
    z = _mesh(z)
    if len(v) != f.dim or len(z) != f.dim:
        raise DimensionMismatch("order/point dimension mismatch")
    if any(c < 0 for c in v):
        raise ValueError("derivative orders must be >= 0")
    _check_powers(f, z)
    if f.envelope is not None and not convergence_region(f).contains(z):
        raise PointOutsideRegion(f"{z} outside convergence region")
    out = _power_sum(f.values, f.support.lo, z, v)
    return complex(out) if f.value_kind == "scalar" and out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Contour inversion
# ---------------------------------------------------------------------------

GRID_GUARD = 16  # default N_i = 2 * span_i + GRID_GUARD


@dataclass
class InversionResult:
    table: SequenceTable
    aliasing: np.ndarray | None  # per-entry wrap-around bound, or None
    radii: tuple[float, ...]
    grid: tuple[int, ...]


def invert_contour(
    F: TransformEvaluator,
    radii: Sequence[float],
    window: Box,
    grid: Sequence[int] | None = None,
    domain=None,
) -> InversionResult:
    """Recover sequence values on a window from polycircle samples of F.

    f(k) ~= (1 / prod N_i) * sum_t prod_i (r_i^{k_i} e^{2 pi i k_i t_i / N_i})
            * F(r e^{2 pi i t / N}); realized as an inverse FFT over the node
    grid followed by per-axis radius weights.  ``F.fn`` is called once, on the
    whole node grid as an open mesh.  A non-finite value raises
    ``EvaluatorFailure`` at its first node in row-major order.  The call may
    raise ``SingularSymbol`` or an ``EvaluatorFailure`` naming its own node;
    any other exception it raises, or a result that does not broadcast to the
    grid plus the value shape, is reported at the grid origin.  No node is
    skipped.
    """
    n = F.dim
    radii = tuple(float(r) for r in radii)
    if len(radii) != n or window.dim != n:
        raise DimensionMismatch("radii/window dimension mismatch")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    probe = tuple(complex(r) for r in radii)
    if not F.region.contains(probe):
        raise CircleOutsideRegion(f"polycircle radii {radii} outside evaluator region")
    if grid is None:
        grid = tuple(2 * s + GRID_GUARD for s in window.span())
    else:
        grid = tuple(int(g) for g in grid)
    if any(g < s + 1 for g, s in zip(grid, window.span())):
        raise ValueError("grid must cover the window span")

    vshape = value_shape(F.value_kind, F.m)
    nodes = [_circle(r, N) for r, N in zip(radii, grid)]
    try:
        val = F.fn(np.ix_(*nodes))
        samples = np.broadcast_to(np.asarray(val, dtype=complex), grid + vshape)
    except (SingularSymbol, EvaluatorFailure):
        raise
    except Exception as e:  # noqa: BLE001 - the whole mesh failed: report its origin
        raise EvaluatorFailure((0,) * n, e) from e
    bad = ~np.isfinite(samples).reshape(grid + (-1,)).all(axis=-1)
    if bad.any():
        t = tuple(int(i) for i in np.argwhere(bad)[0])
        raise EvaluatorFailure(t, f"non-finite value {samples[t]!r}")

    coeff = np.fft.ifftn(samples, axes=tuple(range(n)))
    ks = [np.arange(lo, hi + 1) for lo, hi in zip(window.lo, window.hi)]
    w = math.prod(np.ix_(*(r**k for r, k in zip(radii, ks))))  # outer product
    coeff = coeff[np.ix_(*(k % N for k, N in zip(ks, grid)))]
    out = w.reshape(w.shape + (1,) * len(vshape)) * coeff

    aliasing = None
    if F.sequence_envelope is not None:
        aliasing = _aliasing_bounds(
            F.sequence_envelope,
            F.sequence_sides or ("+",) * n,
            radii,
            grid,
            window,
        )

    if domain is None:
        domain = FullLattice(n)
    table = SequenceTable(domain, window, out, F.value_kind, F.m)
    return InversionResult(table, aliasing, radii, grid)


def _aliasing_bounds(env, sides, radii, grid, window) -> np.ndarray:
    """Exact wrap-around bound of the trapezoid quadrature.

    The computed coefficient equals f(k) + sum_{m != 0} f(k + m*N) * r^{-m*N};
    bounding f by the envelope gives a closed geometric form per axis.
    """
    total = np.ones(())
    diag = np.ones(())
    for i, side in enumerate(sides):
        r = env.rates[i]
        rp = r[1] if isinstance(r, tuple) else r
        rn = r[0] if isinstance(r, tuple) else r
        N, R = grid[i], radii[i]
        ks = range(window.lo[i], window.hi[i] + 1)
        base = np.array([rp**ki if ki >= 0 else rn**ki for ki in ks])
        s = base
        if side in ("+", "z"):
            g = (rp / R) ** N
            if g >= 1:
                return np.full(window.shape, np.inf)
            s = base / (1.0 - g)
        if side in ("-", "z"):
            h = (R / rn) ** N
            if h >= 1:
                return np.full(window.shape, np.inf)
            s = s + base * h / (1.0 - h)
        total = np.multiply.outer(total, s)
        diag = np.multiply.outer(diag, base)
    return env.M * np.maximum(total - diag, 0.0)


def propose_radii(env: Envelope, factor: float = 1.5) -> tuple[float, ...]:
    """Helper used by the CLI: envelope rate scaled outward per axis."""
    out = []
    for r in env.rates:
        out.append((r[1] if isinstance(r, tuple) else r) * factor)
    return tuple(out)
