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
    value_shape,
)

# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outside:
    """|z| > r."""

    r: float

    def holds(self, mod: float) -> bool:
        return mod > self.r


@dataclass(frozen=True)
class Inside:
    """|z| < r."""

    r: float

    def holds(self, mod: float) -> bool:
        return 0 < mod < self.r


@dataclass(frozen=True)
class Ring:
    """r_lo < |z| < r_hi."""

    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (0 < self.r_lo < self.r_hi):
            raise ValueError("ring requires 0 < r_lo < r_hi")

    def holds(self, mod: float) -> bool:
        return self.r_lo < mod < self.r_hi


AxisConstraint = Union[Outside, Inside, Ring]


@dataclass(frozen=True)
class PolyAnnulus:
    """Product of per-axis modulus constraints; rotation-invariant per axis."""

    axes: tuple[AxisConstraint, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    def contains(self, z: Sequence[complex]) -> bool:
        if len(z) != self.dim:
            raise DimensionMismatch("region/point dimension mismatch")
        return all(c.holds(abs(zi)) for c, zi in zip(self.axes, z))


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
    """A point evaluator for a transform, with its declared region of validity.

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
        return self.fn(z)


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------


def _check_powers(f: SequenceTable, z) -> None:
    for i, zi in enumerate(z):
        if zi == 0:
            # 0^(-k) undefined for positive k; 0^k fine for k >= 0.
            if f.support.hi[i] > 0 or _axis_unbounded_above(f, i):
                raise ZeroCoordinate(f"z[{i}] = 0 with positive indices on axis {i}")


def _axis_unbounded_above(f: SequenceTable, i: int) -> bool:
    d = f.domain
    while isinstance(d, Shifted):
        d = d.base
    if isinstance(d, FullLattice):
        return f.envelope is not None
    if isinstance(d, Orthant):
        return d.signs[i] > 0 and f.envelope is not None
    return False


def domain_sides(f: SequenceTable) -> tuple[str, ...]:
    """Per-axis character of the domain: '+', '-', or 'z' (two-sided)."""
    d = f.domain
    while isinstance(d, Shifted):
        d = d.base
    if isinstance(d, Orthant):
        return tuple("+" if s > 0 else "-" for s in d.signs)
    if isinstance(d, FullLattice):
        return ("z",) * d.dim
    # Finite kinds behave like bounded two-sided axes.
    return ("z",) * f.dim


def convergence_region(f: SequenceTable) -> PolyAnnulus:
    """Region implied by the envelope on a product (orthant / full) domain."""
    if f.envelope is None:
        raise NoEnvelope("convergence region needs a decay envelope")
    d = f.domain
    while isinstance(d, Shifted):
        d = d.base
    if not isinstance(d, (Orthant, FullLattice)):
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


def _geom_sum(t: float, lo: int | None, hi: int | None) -> float:
    """sum_{l=lo}^{hi} t^l with infinite ends allowed; inf if divergent."""
    if t <= 0:
        raise ValueError("ratio must be positive")
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


def forward_tail_bound(f: SequenceTable, z) -> float:
    """Bound on the modulus of the transform tail beyond the stored window.

    Uses the envelope and the closed-form geometric sums over each axis of a
    product domain.  Raises if the point lies outside the convergence region.
    """
    if f.envelope is None:
        return 0.0
    region = convergence_region(f)
    if not region.contains(z):
        raise PointOutsideRegion(f"{tuple(z)} outside convergence region")
    sides = domain_sides(f)
    mods = [abs(zi) for zi in z]
    full = 1.0
    stored = 1.0
    for i, side in enumerate(sides):
        r = f.envelope.rates[i]
        lo, hi = f.support.lo[i], f.support.hi[i]
        if side == "+":
            rp = r[1] if isinstance(r, tuple) else r
            q = rp / mods[i]
            full *= 1.0 / (1.0 - q)
            stored *= _geom_sum(q, max(lo, 0), hi)
        elif side == "-":
            rn = r[0] if isinstance(r, tuple) else r
            q = mods[i] / rn
            full *= 1.0 / (1.0 - q)
            stored *= _geom_sum(q, max(-hi, 0), -lo)
        else:
            r_neg, r_pos = r
            qp = r_pos / mods[i]
            qn = mods[i] / r_neg
            full *= 1.0 / (1.0 - qp) + qn / (1.0 - qn)
            stored *= _geom_sum(qp, max(lo, 0), hi) + _geom_sum(qn, 1, -lo)
    return f.envelope.M * max(full - stored, 0.0)


def eval_forward(f: SequenceTable, z, with_tail: bool = False):
    """F(z) = sum over the stored support of f(k) * prod z_i^(-k_i).

    With an envelope present the point must lie in the convergence region and
    ``with_tail=True`` additionally returns the geometric tail bound.
    """
    z = tuple(complex(c) for c in z)
    if len(z) != f.dim:
        raise DimensionMismatch("point dimension mismatch")
    _check_powers(f, z)
    tail = 0.0
    if f.envelope is not None:
        tail = forward_tail_bound(f, z)  # also validates region membership
    acc = np.zeros(f.vshape, dtype=complex)
    for k, v in f.support_points():
        w = 1.0 + 0j
        for zi, ki in zip(z, k):
            w *= zi ** (-ki)
        acc = acc + np.asarray(v) * w
    out = complex(acc) if f.value_kind == "scalar" else acc
    return (out, tail) if with_tail else out


def eval_forward_grid(f: SequenceTable, axis_nodes: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the forward transform on a Cartesian grid of points.

    axis_nodes[i] is the 1-D array of z_i values; the result has shape
    grid_shape + value_shape.  Used by the inversion round-trip path.
    """
    grid_shape = tuple(len(a) for a in axis_nodes)
    out = np.zeros(grid_shape + f.vshape, dtype=complex)
    for k, v in f.support_points():
        w = np.ones(grid_shape, dtype=complex)
        for ax, (nodes, ki) in enumerate(zip(axis_nodes, k)):
            shape = [1] * f.dim
            shape[ax] = -1
            w = w * (nodes ** (-ki)).reshape(shape)
        out += w.reshape(grid_shape + (1,) * len(f.vshape)) * np.asarray(v)
    return out


def forward_evaluator(f: SequenceTable) -> TransformEvaluator:
    """Wrap a table as a point evaluator with its natural region."""
    if f.envelope is not None:
        region: Region = convergence_region(f)
        sides = domain_sides(f)
        env = f.envelope
    else:
        region = PolyAnnulus(tuple(Outside(0.0) for _ in range(f.dim)))
        sides = None
        env = None
    return TransformEvaluator(
        fn=lambda z: eval_forward(f, z),
        region=region,
        value_kind=f.value_kind,
        m=f.m,
        sequence_envelope=env,
        sequence_sides=sides,
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
    base = d
    while isinstance(base, Shifted):
        base = base.base
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
    boundary = [
        (k, v)
        for k, v in f_window.support_points()
        if k in d and tuple(c - ai for c, ai in zip(k, a)) not in d
    ]

    def fn(z):
        za = 1.0 + 0j
        for zi, ai in zip(z, a):
            za *= zi**ai
        acc = np.asarray(F.fn(z), dtype=complex).copy()
        for k, v in boundary:
            w = 1.0 + 0j
            for zi, ki in zip(z, k):
                w *= zi ** (-ki)
            acc = acc - np.asarray(v) * w
        out = za * acc
        return complex(out) if F.value_kind == "scalar" else out

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

    def fn(k):
        w = 1.0 + 0j
        for ai, ki in zip(a, k):
            w *= ai**ki
        return np.asarray(f.at(k)) * w

    return SequenceTable.from_function(
        f.domain, f.support, fn, f.value_kind, f.m, env
    )


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

    def fn(z):
        acc = np.asarray(eval_forward(last, (z[-1],)), dtype=complex)
        for f, zi in zip(factors[:-1], z[:-1]):
            acc = acc * eval_forward(f, (zi,))
        return complex(acc) if last.value_kind == "scalar" else acc

    return TransformEvaluator(
        fn, PolyAnnulus(tuple(axes)), last.value_kind, last.m
    )


def derivative_series(f: SequenceTable, v, z):
    """Partial derivative d^v F / dz^v as a termwise-differentiated series."""
    v = tuple(int(c) for c in v)
    z = tuple(complex(c) for c in z)
    if len(v) != f.dim or len(z) != f.dim:
        raise DimensionMismatch("order/point dimension mismatch")
    if any(c < 0 for c in v):
        raise ValueError("derivative orders must be >= 0")
    _check_powers(f, z)
    if f.envelope is not None and not convergence_region(f).contains(z):
        raise PointOutsideRegion(f"{z} outside convergence region")
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
    return complex(acc) if f.value_kind == "scalar" else acc


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
    grid followed by per-axis radius weights.  Nodes are evaluated in a fixed
    row-major order; an evaluator failure at any node aborts (no skipping).
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
    nodes = [r * np.exp(2j * np.pi * np.arange(N) / N) for r, N in zip(radii, grid)]
    samples = np.empty(grid + vshape, dtype=complex)
    for t in np.ndindex(*grid):
        z = tuple(nodes[i][ti] for i, ti in enumerate(t))
        try:
            val = F.fn(z)
        except SingularSymbol:
            raise
        except Exception as e:  # noqa: BLE001 - propagate with node coordinates
            raise EvaluatorFailure(t, e) from e
        arr = np.asarray(val, dtype=complex)
        if arr.shape != vshape or not np.all(np.isfinite(arr)):
            raise EvaluatorFailure(t, f"bad value shape/finiteness: {val!r}")
        samples[t] = arr

    coeff = np.fft.ifftn(samples, axes=tuple(range(n)))
    shape = window.shape
    out = np.empty(shape + vshape, dtype=complex)
    for idx in np.ndindex(*shape):
        k = tuple(a + i for a, i in zip(window.lo, idx))
        w = 1.0
        for r, ki in zip(radii, k):
            w *= r**ki
        out[idx] = w * coeff[tuple(ki % N for ki, N in zip(k, grid))]

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
