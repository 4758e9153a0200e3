"""Forward multidimensional Z-transform, region bookkeeping, and contour inversion.

The forward transform of a stored table is the finite sum over its support,
F(z) = sum_k f(k) z^(-k).  Tables with a decay envelope stand in for infinite
sequences; for those the evaluation can report a closed-form geometric bound on
the unstored tail.  Inversion samples polycircles uniformly per axis, which is
the trapezoid rule for the polycircle integral and is realized here as an
inverse DFT with per-axis radius weights.  Every tail and aliasing bound sums
geometric runs with ``_log_run``: a run's log as its largest term times
(1 - u^n) / (1 - u), by expm1, raised by 2 eps per unit of the moduli of the
logs it adds plus 32 eps.  Its operations err by at most (3 |top| + 2 |scale|
+ 2 lf + 7) eps / 2, lf the log of the factor (Higham, "Accuracy and Stability
of Numerical Algorithms", 2.2, 3.1); the rest covers the exp and the sums of
runs.  It bounds the run of its float arguments, not a caller's log_g rounding.
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
    DivergentConvolution,
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
    LatticeDomain,
    Orthant,
    SequenceTable,
    Shifted,
    _base,
    axis_interval,
    domain_mask,
    nonneg_orthant,
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
        return all(c.holds(np.abs(zi)).all() for c, zi in zip(self.axes, z))


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

    ``sequence_envelope`` optionally bounds the underlying sequence on
    ``sequence_domain`` (N0^n when None); contour inversion sums the envelope
    over each axis's interval of that domain to bound aliasing.
    """

    fn: Callable[[tuple[complex, ...]], object]
    region: Region
    value_kind: str = "scalar"
    m: int | None = None
    sequence_envelope: Envelope | None = None
    sequence_domain: LatticeDomain | None = None

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
    """Coordinates as complex numbers (a point) or complex arrays (a mesh); a
    non-finite coordinate lies in no region."""
    z = tuple(complex(c) if np.ndim(c) == 0 else np.asarray(c, dtype=complex) for c in z)
    if not all(np.isfinite(zi).all() for zi in z):
        raise PointOutsideRegion(f"{z} has a non-finite coordinate")
    return z


def _check_powers(f: SequenceTable, z) -> None:
    for i, zi in enumerate(z):
        # an enveloped table's tail runs to the upper end of its domain
        top = axis_interval(f.domain, i)[1] if f.envelope is not None else f.support.hi[i]
        if np.any(zi == 0) and (top is None or max(top, f.support.hi[i]) > 0):
            # 0^(-k) undefined for positive k; 0^k fine for k >= 0.
            raise ZeroCoordinate(f"z[{i}] = 0 with positive indices on axis {i}")


def convergence_region(f: SequenceTable) -> PolyAnnulus:
    """Region implied by the envelope on a product (orthant / full) domain."""
    if f.envelope is None:
        raise NoEnvelope("convergence region needs a decay envelope")
    if not isinstance(_base(f.domain), (Orthant, FullLattice)):
        raise NoEnvelope("convergence region defined for orthant or full domains only")
    axes = []
    for i, (r_neg, r_pos) in enumerate(f.envelope.sides):
        lo, hi = axis_interval(f.domain, i)
        if lo is not None:
            axes.append(Outside(r_pos))
        elif hi is not None:
            axes.append(Inside(r_neg))
        elif r_pos < r_neg:
            axes.append(Ring(r_pos, r_neg))
        else:
            raise TwoSidedAxisWithoutRingRates(
                f"axis {i} is two-sided: it needs a rate pair with r_pos < r_neg"
            )
    return PolyAnnulus(tuple(axes))


_RUN_SLOPE, _RUN_FLOOR = 2.0 * np.finfo(float).eps, 32.0 * np.finfo(float).eps  # see above
_ONE_MODULUS = 4.0 * np.finfo(float).eps  # spread of log |z| over rounded nodes of one circle


def _log_run(a, b, log_g, log_scale=0.0):
    """log sum_{m=a}^{b} e^(log_scale + m log_g), rounded up, elementwise, for
    a an integer or -inf, b an integer or inf and log_g 0 or a normal float;
    u = e^-|log_g|.  -inf where the run is empty, inf where it is infinite and
    does not decay.  Numbers take ``math``; arrays broadcast, one numpy pass
    per operation."""
    if np.ndarray not in (type(a), type(b), type(log_g), type(log_scale)):
        if a > b:
            return -math.inf
        g = abs(log_g)
        top = 0.0 if g == 0 else (b if log_g > 0 else a) * log_g
        lf = math.log(b - a + 1 if g == 0 else math.expm1(-(b - a + 1) * g) / math.expm1(-g))
        return log_scale + top + lf + _RUN_SLOPE * (abs(log_scale) + abs(top) + lf) + _RUN_FLOOR
    n = np.subtract(b, a) + 1.0
    flat, n1 = np.equal(log_g, 0), np.maximum(n, 1.0)  # n terms of 1; an empty run as one, masked
    g = np.where(flat, 1.0, np.abs(log_g))  # g > 0 keeps the expm1 ratio finite where flat
    top = np.where(flat, 0.0, np.where(np.greater(log_g, 0), b, a)) * log_g
    lf = np.log(np.where(flat, n1, np.expm1(n1 * -g) / np.expm1(-g)))
    up = (np.abs(log_scale) + np.abs(top) + lf) * _RUN_SLOPE + _RUN_FLOOR
    return np.where(n >= 1.0, log_scale + top + lf + up, -math.inf)


def _exp(x):
    """e^x of a run's log, a number or an array: inf past the float range."""
    if isinstance(x, np.ndarray):
        return np.exp(x, out=np.full(x.shape, math.inf), where=x < 709.78)
    return math.exp(x) if x < 709.78 else math.inf


def forward_tail_bound(f: SequenceTable, z):
    """Bound on the modulus of the transform tail beyond the stored window.

    Per axis, the envelope terms b(k) |z|^-k summed over the stored part S_i
    of the domain's admissible interval and over its unstored rest T_i: M
    sum_i S_1...S_{i-1} T_i F_{i+1}...F_n with F = S + T, never a difference
    of full and stored sums, which cancels below rounding of the full sum.  On
    an open mesh an outer product with one entry per node, at a point a
    float.  An axis whose node moduli agree to rounding (a contour circle)
    sums each run once, at the node where it is largest.  Raises if the point
    or a node is outside the convergence region.
    """
    if f.envelope is None:
        return 0.0
    z = _mesh(z)
    if not convergence_region(f).contains(z):
        raise PointOutsideRegion(f"{z} outside convergence region")
    tail, stored = 0.0, 1.0
    for i, zi in enumerate(z):
        lo, hi = axis_interval(f.domain, i)
        lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
        s_lo, s_hi = max(lo, f.support.lo[i]), min(hi, f.support.hi[i])
        log_z = math.log(abs(zi)) if isinstance(zi, complex) else np.log(np.abs(zi))
        ends = (log_z, log_z)  # the log |z| each side of k = 0 reads
        if isinstance(log_z, np.ndarray) and log_z.size and np.ptp(log_z) <= _ONE_MODULUS:
            ends = (float(np.max(log_z)), float(np.min(log_z)))  # k < 0 runs grow with |z|
        st = [0.0, 0.0]  # S_i over the stored interval, T_i over the unstored ones around it
        for row, (a, b) in enumerate(((s_lo, s_hi), (lo, min(hi, s_lo - 1)), (max(lo, s_hi + 1), hi))):
            for rate, a, b, lz in zip(f.envelope.sides[i], (a, max(a, 0)), (min(b, -1), b), ends):
                if a <= b:  # each side of k = 0
                    st[row > 0] = st[row > 0] + _exp(_log_run(a, b, math.log(rate) - lz))
        tail, stored = tail * (st[0] + st[1]) + stored * st[1], stored * st[0]
    if all(isinstance(zi, complex) for zi in z):
        return float(f.envelope.M * tail)
    return np.full(np.broadcast_shapes(*(np.shape(zi) for zi in z)), f.envelope.M * tail)


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
    tensordot with the matrix c_i(k) z_i^(-k_i-v_i), where a power whose
    modulus leaves the float range reads 0 (below it) or inf (above it).
    """
    acc = np.asarray(values, dtype=complex)
    pos = []  # the mesh dimension each coordinate varies along
    for i, zi in enumerate(z):
        zi = np.asarray(zi, dtype=complex)
        vi = 0 if v is None else v[i]
        ks = np.arange(lo[i], lo[i] + acc.shape[0])[:, None]
        c = 1.0
        for t in range(vi):
            c = c * (-ks - t)
        r = _circle_radius(zi, acc.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            w = None if r is None else c * r ** (-ks - vi)
        if w is not None and np.isfinite(w).all():
            acc = _fold_fft(acc, w, lo[i] + vi, zi.size)
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                w = zi.reshape(1, -1) ** (-ks - vi)
                if not np.isfinite(w).all():  # numpy forms z^-k as 1/z^k
                    up = np.log(np.abs(zi.reshape(1, -1))) * (-ks - vi) > 0
                    w = np.where(np.isfinite(w), w, np.where(up, math.inf, 0.0))
                if vi:  # c = 0 masks the powers of z = 0 it cancels
                    w = np.where(c != 0, c * w, 0.0)
                acc = np.tensordot(acc, w, axes=(0, 0))  # inf powers may give inf or nan
        pos.append(zi.shape.index(max(zi.shape)) if zi.ndim else 0)
    vdim = acc.ndim - len(z)
    order = [vdim + i for i in sorted(range(len(pos)), key=pos.__getitem__)]
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
    out = _check_value(_power_sum(f.values, f.support.lo, z), z)
    if f.value_kind == "scalar" and out.ndim == 0:
        out = complex(out)
    return (out, tail) if with_tail else out


def _check_value(out, z):
    """``out``, or DivergentConvolution at the first node (row-major) of the point or
    mesh ``z`` whose transform value left the float range."""
    if not np.isfinite(out).all():
        mesh = np.broadcast_shapes(*(np.shape(zi) for zi in z))
        t = tuple(np.argwhere(~np.isfinite(out))[0][: len(mesh)])
        node = tuple(complex(np.broadcast_to(zi, mesh)[t]) for zi in z)
        raise DivergentConvolution(f"transform value at z={node} leaves the float range")
    return out


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
        sequence_domain=f.domain,
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
    out = _check_value(_power_sum(f.values, f.support.lo, z, v), z)
    return complex(out) if f.value_kind == "scalar" and out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Contour inversion
# ---------------------------------------------------------------------------

GRID_GUARD = 16  # default N_i = 2 * span_i + GRID_GUARD
_RADIUS_FACTOR = 1.5  # how far propose_radii steps inside a region's boundary


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
    skipped.  The table lies on the full lattice.
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
    smax = float(np.max(np.abs(samples)))
    if not math.isfinite(smax):
        bad = ~np.isfinite(samples).reshape(grid + (-1,)).all(axis=-1)
        if bad.any():
            t = tuple(int(i) for i in np.argwhere(bad)[0])
            raise EvaluatorFailure(t, f"non-finite value {samples[t]!r}")

    big = smax * math.prod(grid) > 1e300  # the FFT's unscaled sums would pass the float range
    coeff = np.fft.ifftn(samples / math.prod(grid) if big else samples, axes=tuple(range(n)),
                         norm="forward" if big else "backward")
    ks = [np.arange(lo, hi + 1) for lo, hi in zip(window.lo, window.hi)]
    w = math.prod(np.ix_(*(r**k for r, k in zip(radii, ks))))  # outer product
    coeff = coeff[np.ix_(*(k % N for k, N in zip(ks, grid)))]
    out = w.reshape(w.shape + (1,) * len(vshape)) * coeff

    env, seq_domain = F.sequence_envelope, F.sequence_domain or nonneg_orthant(n)
    aliasing = None if env is None else _aliasing_bounds(env, seq_domain, radii, grid, window, smax)

    table = SequenceTable(FullLattice(n), window, out, F.value_kind, F.m)
    return InversionResult(table, aliasing, radii, grid)


# Rounding allowance per entry, in units of eps log2(2 prod N) max|sample| R^k:
# Higham's bound on the FFT ("Accuracy and Stability of Numerical Algorithms",
# sec. 24.1) grows with log2 N, and the 2 covers a one-node grid.  Over 594
# inversions of flat and decaying spectra (grids 1..1024 and 1^2..64^2, radii
# 0.8..1.25) the error took at most 0.79 units, 0.19 for the FFT alone.
_ROUNDING = 2.0 * np.finfo(float).eps


def _aliasing_bounds(env, domain, radii, grid, window, sample_max) -> np.ndarray:
    """Per-entry bound on the trapezoid rule's error: wrap-around plus rounding.

    The computed coefficient is f(k) + sum_{m != 0} f(k + m N) R^(-m N) over
    k + m N in the domain.  Per axis, with b the envelope factor and [lo, hi]
    the ``lattice.axis_interval``, d(k) = b(k) on [lo, hi], else 0, and a(k)
    sums b(j) R^(k - j) over j = k + m N in [lo, hi], m != 0.  On each side of
    j = 0 that is b(k) times runs in m from ceil((lo - k) / N) to -1 and from
    1 to floor((hi - k) / N); the window splits where those ends step, and on
    each piece each run is one ``_log_run`` (a window no longer than the
    grid, as ``invert_contour`` requires, has at most three pieces).
    E <- E (d + a) + D a, D <- D d combines the axes without subtracting the
    m = 0 term.  Adds ``_ROUNDING`` log2(2 prod N) ``sample_max`` R^k; inf
    everywhere where a run diverges.
    """
    n, E, D = window.dim, None, env.M
    W = _ROUNDING * math.log2(2 * math.prod(grid)) * sample_max
    for i, (k0, k1, N, R) in enumerate(zip(window.lo, window.hi, grid, radii)):
        lo, hi = axis_interval(domain, i)
        lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
        k = np.arange(k0, k1 + 1.0).reshape((-1,) + (1,) * (n - 1 - i))
        d, a = [], []  # the terms of each side of j = 0
        for r, A, B in zip(env.sides[i], (lo, max(lo, 0)), (min(hi, -1), hi)):
            if A > B:
                continue
            log_g, klr = N * math.log(r / R), k * math.log(r)
            # the run ends step once each, where k = A and k = B + 1 mod N
            steps = (k0 + 1 + (c - k0 - 1) % N for c in (A, B + 1) if abs(c) < math.inf)
            cuts = sorted({k0, k1 + 1, *(c for c in steps if c <= k1)})
            t = []  # per piece, the log of the runs m < 0 and m > 0 together
            for s in cuts[:-1]:
                m_lo = A if A == -math.inf else -((s - A) // N)
                m_hi = B if B == math.inf else (B - s) // N
                x, y = _log_run(m_lo, min(m_hi, -1), log_g), _log_run(max(m_lo, 1), m_hi, log_g)
                t.append(np.logaddexp(x, y) if x > -math.inf < y else max(x, y))
            if math.inf in t:
                return np.full(window.shape, math.inf)
            if max(t) > -math.inf:
                t = t[0] if len(t) == 1 else np.repeat(t, np.diff(cuts)).reshape(k.shape)
                a.append(np.exp(klr + t))
            if A <= k1 and k0 <= B:
                b = np.exp(klr)
                d.append(b if A <= k0 and k1 <= B else b * ((k >= A) & (k <= B)))
        d = sum(d[1:], d[0]) if d else 0.0
        a = sum(a[1:], a[0]) if a else 0.0
        E = D * a if E is None else E * (d + a) + D * a
        D = D * d if i < n - 1 else None
        W = W * R**k
    return E + W


def propose_radii(region: PolyAnnulus) -> tuple[float, ...]:
    """Helper used by the CLI: per axis a radius strictly inside the region,
    r / _RADIUS_FACTOR for |z| < r, else the lower radius times _RADIUS_FACTOR
    where that stays below the upper one, or the geometric mean of the two."""
    out = []
    for c in region.axes:
        if isinstance(c, Inside):
            out.append(c.r / _RADIUS_FACTOR)
        else:
            lo, hi = (c.r, math.inf) if isinstance(c, Outside) else (c.r_lo, c.r_hi)
            out.append(lo * _RADIUS_FACTOR if lo * _RADIUS_FACTOR < hi else math.sqrt(lo * hi))
    return tuple(out)
