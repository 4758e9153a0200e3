"""Multi-index lattice domains and dense storage for lattice sequences.

A sequence takes values in C (scalar), C^m (vector) or C^{m x m} (matrix) on a
sub-domain of Z^n.  Storage is always a dense row-major window (a box), with the
sequence defined as zero outside the window but inside the domain.  Sequences of
infinite support additionally carry a geometric decay envelope that bounds the
unstored tail:  ||f(k)|| <= M * prod_i rate_i^{k_i}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    SchemaError,
    UnrepresentableSum,
)

MultiIndex = tuple[int, ...]


def _as_index(k) -> MultiIndex:
    return tuple(int(c) for c in k)


# ---------------------------------------------------------------------------
# Lattice domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullLattice:
    """All of Z^n."""

    dim: int

    def __contains__(self, k) -> bool:
        return len(k) == self.dim


@dataclass(frozen=True)
class Orthant:
    """Product of N0 (+1 sign) and -N0 (-1 sign) factors."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if not all(s in (+1, -1) for s in self.signs):
            raise ValueError("orthant signs must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.signs)

    def __contains__(self, k) -> bool:
        return all(s * c >= 0 for s, c in zip(self.signs, k))


@dataclass(frozen=True)
class Box:
    """Componentwise interval lo <= k <= hi."""

    lo: MultiIndex
    hi: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_index(self.lo))
        object.__setattr__(self, "hi", _as_index(self.hi))
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch("box lo/hi dimension mismatch")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"box requires lo <= hi, got {self.lo} > {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def __contains__(self, k) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, k, self.hi))

    def points(self) -> Iterator[MultiIndex]:
        for idx in np.ndindex(*self.shape):
            yield tuple(a + i for a, i in zip(self.lo, idx))

    def span(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Shifted:
    """base + offset."""

    base: "LatticeDomain"
    offset: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "offset", _as_index(self.offset))
        if self.base.dim != len(self.offset):
            raise DimensionMismatch("shift offset dimension mismatch")

    @property
    def dim(self) -> int:
        return self.base.dim

    def __contains__(self, k) -> bool:
        return tuple(c - o for c, o in zip(k, self.offset)) in self.base


@dataclass(frozen=True)
class FiniteSet:
    """Explicit finite point set, kept lexicographically sorted."""

    points: tuple[MultiIndex, ...]
    _set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(sorted(_as_index(p) for p in self.points))
        if not pts:
            raise ValueError("FiniteSet must be non-empty")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DimensionMismatch("FiniteSet points of mixed dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_set", frozenset(pts))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __contains__(self, k) -> bool:
        return _as_index(k) in self._set


LatticeDomain = Union[FullLattice, Orthant, Box, Shifted, FiniteSet]


def nonneg_orthant(n: int) -> Orthant:
    """N0^n."""
    return Orthant((+1,) * n)


def membership(domain: LatticeDomain, k) -> bool:
    """True iff the multi-index k belongs to the domain."""
    if domain.dim != len(k):
        raise DimensionMismatch(
            f"domain dimension {domain.dim} vs index dimension {len(k)}"
        )
    return k in domain


def minkowski_sum(d1: LatticeDomain, d2: LatticeDomain) -> LatticeDomain:
    """{a + b : a in d1, b in d2} for the representable kind pairs."""
    if d1.dim != d2.dim:
        raise DimensionMismatch("minkowski_sum dimension mismatch")
    if isinstance(d1, FullLattice) or isinstance(d2, FullLattice):
        return FullLattice(d1.dim)
    # Peel shifts: (base + off) + D = (base + D) + off.
    if isinstance(d1, Shifted):
        return Shifted(minkowski_sum(d1.base, d2), d1.offset)
    if isinstance(d2, Shifted):
        return Shifted(minkowski_sum(d1, d2.base), d2.offset)
    if isinstance(d1, Orthant) and isinstance(d2, Orthant):
        if d1.signs == d2.signs:
            return d1
        raise UnrepresentableSum("orthants with differing signs")
    if isinstance(d1, Box) and isinstance(d2, Box):
        lo = tuple(a + b for a, b in zip(d1.lo, d2.lo))
        hi = tuple(a + b for a, b in zip(d1.hi, d2.hi))
        return Box(lo, hi)
    if isinstance(d1, FiniteSet) and isinstance(d2, FiniteSet):
        pts = {tuple(a + b for a, b in zip(p, q)) for p in d1.points for q in d2.points}
        return FiniteSet(tuple(pts))
    # Single translate folds into a Shifted wrapper.
    if isinstance(d1, FiniteSet) and len(d1.points) == 1:
        return Shifted(d2, d1.points[0])
    if isinstance(d2, FiniteSet) and len(d2.points) == 1:
        return Shifted(d1, d2.points[0])
    raise UnrepresentableSum(f"{type(d1).__name__} + {type(d2).__name__}")


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

RateSpec = Union[float, tuple[float, float]]


@dataclass(frozen=True)
class Envelope:
    """Geometric decay bound ||f(k)|| <= M * prod_i b_i(k_i).

    A per-axis rate is either a single positive real r (b(k) = r^k) or a pair
    (r_neg, r_pos) meaning b(k) = r_pos^k for k >= 0 and r_neg^k for k < 0.
    The pair form is what makes two-sided (full-lattice) axes summable: it
    yields the ring r_pos < |z| < r_neg in the transform domain.
    """

    M: float
    rates: tuple[RateSpec, ...]

    def __post_init__(self):
        if self.M < 0:
            raise ValueError("envelope constant must be >= 0")
        rates = []
        for r in self.rates:
            if isinstance(r, (tuple, list)):
                lo, hi = float(r[0]), float(r[1])
                if lo <= 0 or hi <= 0:
                    raise ValueError("envelope rates must be positive")
                rates.append((lo, hi))
            else:
                r = float(r)
                if r <= 0:
                    raise ValueError("envelope rates must be positive")
                rates.append(r)
        object.__setattr__(self, "rates", tuple(rates))

    @property
    def dim(self) -> int:
        return len(self.rates)

    def axis_factor(self, axis: int, k):
        """b_axis(k) for an index or an index array; inf where it overflows."""
        r = self.rates[axis]
        r_neg, r_pos = r if isinstance(r, tuple) else (r, r)
        k = np.asarray(k)
        with np.errstate(over="ignore"):
            return np.where(k >= 0, r_pos, r_neg) ** k.astype(float)

    def bound(self, k) -> float:
        out = self.M
        for i, c in enumerate(k):
            out *= self.axis_factor(i, int(c))
        return out


# ---------------------------------------------------------------------------
# Sequence tables
# ---------------------------------------------------------------------------

_VALUE_KINDS = ("scalar", "vector", "matrix")


def value_shape(value_kind: str, m: int | None) -> tuple[int, ...]:
    if value_kind == "scalar":
        return ()
    if value_kind == "vector":
        return (m,)
    if value_kind == "matrix":
        return (m, m)
    raise ValueError(f"unknown value kind {value_kind!r}")


def value_norm(v) -> float:
    """Operator 2-norm for matrices, Euclidean norm for vectors, |.| for scalars."""
    a = np.asarray(v)
    return float(value_norms(a, a.ndim))


def value_norms(values: np.ndarray, value_ndim: int) -> np.ndarray:
    """``value_norm`` of every entry; the last ``value_ndim`` axes hold a value."""
    if value_ndim == 0:
        return np.abs(values)
    if value_ndim == 1:
        return np.linalg.norm(values, axis=-1)
    return _sv_extremes(values)[0]


def _sv_extremes(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_max, sigma_min) of every m x m matrix in a stack.

    Closed forms for m <= 2: |a| twice for 1 x 1.  A 2 x 2 matrix is scaled
    by the power of two that brings its largest |entry| into [0.5, 1), so that
    no square over- or underflows, and reduced by one column-pivoted QR step
    to R = [[f, g], [0, h]] with f its largest column norm, g = |col_1^H
    col_2| / f and h = |det| / f.  Then sigma_max = (sqrt((f + h)^2 + g^2) +
    sqrt((f - h)^2 + g^2)) / 2, which is (sqrt(F + 2|det|) + sqrt(F -
    2|det|)) / 2 for F = ||M||_F^2 with F - 2|det| formed without
    cancellation, and sigma_min = |det| / sigma_max, both scaled back; each
    step is one elementwise operation over the whole stack.  Larger m takes a
    stacked SVD.  A matrix with an inf entry has sigma_max inf, one with a nan
    entry nan; sigma_min of a non-finite 2 x 2 matrix is nan.
    """
    if M.shape[-2:] == (1, 1):
        s = np.abs(M[..., 0, 0])
        return s, s
    if M.shape[-2:] != (2, 2):
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[..., 0], sv[..., -1]
    a, b, c, d = (M[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    ma, mb, mc, md = np.abs(a), np.abs(b), np.abs(c), np.abs(d)
    s = np.maximum(np.maximum(ma, mb), np.maximum(mc, md))
    ok = np.isfinite(s) & (s > 0)
    patch = not ok.all()  # zero and non-finite matrices are patched in at the end
    if patch:
        a, b, c, d, ma, mb, mc, md = (np.where(ok, v, 0.0) for v in (a, b, c, d, ma, mb, mc, md))
    e = np.frexp(np.where(ok, s, 1.0))[1]
    r = np.ldexp(1.0, -e)
    a, b, c, d, ma, mb, mc, md = (v * r for v in (a, b, c, d, ma, mb, mc, md))
    f = np.sqrt(np.maximum(np.maximum(ma * ma + mc * mc, mb * mb + md * md), 0.25))  # >= 0.5 where ok
    det = np.abs(a * d - b * c)
    g = np.abs(a.conj() * b + c.conj() * d) / f
    h = det / f
    g2 = g * g
    smax = 0.5 * (np.sqrt((f + h) ** 2 + g2) + np.sqrt((f - h) ** 2 + g2))
    smax, smin = np.ldexp(smax, e), np.ldexp(det / smax, e)
    if patch:
        smax = np.where(ok, smax, s)
        smin = np.where(ok, smin, np.where(s == 0, 0.0, np.nan))
    return smax, smin


def axis_interval(domain: LatticeDomain, axis: int):
    """(lo, hi) bounds of the domain along one axis; None means unbounded."""
    off = 0
    while isinstance(domain, Shifted):
        off += domain.offset[axis]
        domain = domain.base
    if isinstance(domain, FullLattice):
        return (None, None)
    if isinstance(domain, Orthant):
        return (off, None) if domain.signs[axis] > 0 else (None, off)
    if isinstance(domain, Box):
        return (domain.lo[axis] + off, domain.hi[axis] + off)
    if isinstance(domain, FiniteSet):
        cs = [p[axis] for p in domain.points]
        return (min(cs) + off, max(cs) + off)
    raise TypeError(f"unknown domain {domain!r}")


def domain_mask(domain: LatticeDomain, support: Box) -> np.ndarray:
    """Boolean array over the support box: True at the points of the domain."""
    base, lo = domain, np.array(support.lo)
    while isinstance(base, Shifted):
        base, lo = base.base, lo - base.offset
    if isinstance(base, FiniteSet):
        mask = np.zeros(support.shape, dtype=bool)
        for p in base.points:
            idx = tuple(int(c) for c in np.subtract(p, lo))
            if all(0 <= i < s for i, s in zip(idx, support.shape)):
                mask[idx] = True
        return mask
    # every other kind is a product of per-axis intervals
    mask = np.ones(support.shape, dtype=bool)
    for ax, (a, b) in enumerate(zip(support.lo, support.hi)):
        d_lo, d_hi = axis_interval(domain, ax)
        ks = np.arange(a, b + 1)
        keep = (ks >= (a if d_lo is None else d_lo)) & (ks <= (b if d_hi is None else d_hi))
        shape = [1] * support.dim
        shape[ax] = -1
        mask &= keep.reshape(shape)
    return mask


class SequenceTable:
    """Dense finitely stored lattice sequence over a support box.

    Immutable after construction.  Values are complex; stored entries lying
    outside the declared domain are forced to zero so that ``at`` is uniform.
    """

    def __init__(
        self,
        domain: LatticeDomain,
        support: Box,
        values: np.ndarray,
        value_kind: str = "scalar",
        m: int | None = None,
        envelope: Envelope | None = None,
    ):
        if value_kind not in _VALUE_KINDS:
            raise ValueError(f"unknown value kind {value_kind!r}")
        if value_kind != "scalar" and (m is None or m < 1):
            raise ValueError("vector/matrix tables need m >= 1")
        if domain.dim != support.dim:
            raise DimensionMismatch("domain/support dimension mismatch")
        if envelope is not None and envelope.dim != domain.dim:
            raise DimensionMismatch("envelope dimension mismatch")
        shape = support.shape + value_shape(value_kind, m)
        vals = np.ascontiguousarray(np.asarray(values, dtype=complex).reshape(shape))
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entries in sequence table")
        # Zero out entries outside the domain (finite-support semantics).
        if not isinstance(domain, FullLattice):
            outside = ~domain_mask(domain, support)
            if outside.any():
                vals = vals.copy()
                vals[outside] = 0
        vals.setflags(write=False)
        self.domain = domain
        self.support = support
        self.values = vals
        self.value_kind = value_kind
        self.m = None if value_kind == "scalar" else int(m)
        self.envelope = envelope

    # -- basics ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def vshape(self) -> tuple[int, ...]:
        return value_shape(self.value_kind, self.m)

    def zero_value(self):
        z = np.zeros(self.vshape, dtype=complex)
        return complex(0) if self.value_kind == "scalar" else z

    def at(self, k):
        """f(k): stored value inside the support box, 0 elsewhere in-domain."""
        k = _as_index(k)
        if len(k) != self.dim:
            raise DimensionMismatch("index dimension mismatch")
        if k not in self.support:
            return self.zero_value()
        idx = tuple(c - a for c, a in zip(k, self.support.lo))
        v = self.values[idx]
        return complex(v) if self.value_kind == "scalar" else v

    def support_points(self) -> Iterator[tuple[MultiIndex, object]]:
        """Iterate (k, value) over the support box in row-major order."""
        for idx in np.ndindex(*self.support.shape):
            k = tuple(a + i for a, i in zip(self.support.lo, idx))
            v = self.values[idx]
            yield k, (complex(v) if self.value_kind == "scalar" else v)

    def norms(self) -> np.ndarray:
        """||f(k)|| over the support box."""
        return value_norms(self.values, len(self.vshape))

    def envelope_ok(self, slack: float = 1e-12) -> bool:
        """Check every stored value against the envelope bound."""
        if self.envelope is None:
            return True
        env, sup = self.envelope, self.support
        ks = (np.arange(a, b + 1) for a, b in zip(sup.lo, sup.hi))
        bound = env.M * math.prod(np.ix_(*(env.axis_factor(i, k) for i, k in enumerate(ks))))
        return bool(np.all(self.norms() <= bound + slack))

    def __repr__(self):
        return (
            f"SequenceTable(dim={self.dim}, kind={self.value_kind}, "
            f"support={self.support.lo}..{self.support.hi}, "
            f"envelope={'yes' if self.envelope else 'no'})"
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_function(
        domain: LatticeDomain,
        support: Box,
        fn: Callable[[MultiIndex], object],
        value_kind: str = "scalar",
        m: int | None = None,
        envelope: Envelope | None = None,
    ) -> "SequenceTable":
        shape = support.shape + value_shape(value_kind, m)
        vals = np.zeros(shape, dtype=complex)
        for idx in np.ndindex(*support.shape):
            k = tuple(a + i for a, i in zip(support.lo, idx))
            if k in domain:
                vals[idx] = fn(k)
        return SequenceTable(domain, support, vals, value_kind, m, envelope)

    @staticmethod
    def delta(
        n: int,
        at: MultiIndex | None = None,
        domain: LatticeDomain | None = None,
        value_kind: str = "scalar",
        m: int | None = None,
    ) -> "SequenceTable":
        """Unit impulse at a point (identity matrix for matrix kind)."""
        at = _as_index(at) if at is not None else (0,) * n
        domain = domain if domain is not None else nonneg_orthant(n)
        if value_kind == "matrix":
            unit = np.eye(m, dtype=complex)
        elif value_kind == "vector":
            unit = np.ones(m, dtype=complex)
        else:
            unit = 1.0 + 0j
        vals = np.zeros((1,) * n + value_shape(value_kind, m), dtype=complex)
        vals[(0,) * n] = unit
        return SequenceTable(domain, Box(at, at), vals, value_kind, m)


def beta_shift(f: SequenceTable, beta) -> SequenceTable:
    """g(k) = f(k + beta) if k + beta in domain(f), else 0; same domain.

    The support box translates by -beta and is the natural storage window of g.
    """
    beta = _as_index(beta)
    if len(beta) != f.dim:
        raise DimensionMismatch("shift dimension mismatch")
    lo = tuple(a - b for a, b in zip(f.support.lo, beta))
    hi = tuple(a - b for a, b in zip(f.support.hi, beta))
    # the stored values move as they are; the new box's points outside the
    # domain are zeroed on construction
    return SequenceTable(
        f.domain,
        Box(lo, hi),
        f.values,
        f.value_kind,
        f.m,
        f.envelope if f.envelope is None else _shift_envelope(f.envelope, beta),
    )


def _shift_envelope(env: Envelope, beta: MultiIndex) -> Envelope:
    # ||f(k+beta)|| <= M * prod b_i(k_i + beta_i) <= (M * prod max b_i(b)) * prod b_i(k_i)
    # only exact for one-sided rates; for pair rates keep the looser of the two.
    M = env.M
    for i, b in enumerate(beta):
        r = env.rates[i]
        if isinstance(r, tuple):
            M *= max(r[0] ** b, r[1] ** b)
        else:
            M *= r**b
    return Envelope(M, env.rates)


# ---------------------------------------------------------------------------
# Document ingest / emit
# ---------------------------------------------------------------------------


def _domain_to_doc(d: LatticeDomain) -> dict:
    if isinstance(d, FullLattice):
        return {"kind": "full", "dim": d.dim}
    if isinstance(d, Orthant):
        return {"kind": "orthant", "signs": ["+" if s > 0 else "-" for s in d.signs]}
    if isinstance(d, Box):
        return {"kind": "box", "lo": list(d.lo), "hi": list(d.hi)}
    if isinstance(d, Shifted):
        return {"kind": "shifted", "base": _domain_to_doc(d.base), "offset": list(d.offset)}
    if isinstance(d, FiniteSet):
        return {"kind": "finite", "points": [list(p) for p in d.points]}
    raise SchemaError(f"unknown domain type {type(d)!r}")


def _domain_from_doc(doc: dict) -> LatticeDomain:
    try:
        kind = doc["kind"]
        if kind == "full":
            return FullLattice(int(doc["dim"]))
        if kind == "orthant":
            return Orthant(tuple(+1 if s == "+" else -1 for s in doc["signs"]))
        if kind == "box":
            return Box(tuple(doc["lo"]), tuple(doc["hi"]))
        if kind == "shifted":
            return Shifted(_domain_from_doc(doc["base"]), tuple(doc["offset"]))
        if kind == "finite":
            return FiniteSet(tuple(tuple(p) for p in doc["points"]))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad domain document: {e}") from e
    raise SchemaError(f"unknown domain kind {kind!r}")


def emit(f: SequenceTable) -> dict:
    """Serialize a table to the JSON-compatible sequence document."""
    flat = f.values.reshape(-1)
    doc = {
        "n": f.dim,
        "value_kind": f.value_kind,
        "domain": _domain_to_doc(f.domain),
        "support_lo": list(f.support.lo),
        "support_hi": list(f.support.hi),
        "values": [[float(v.real), float(v.imag)] for v in flat],
        "envelope": None,
    }
    if f.value_kind != "scalar":
        doc["m"] = f.m
    if f.envelope is not None:
        doc["envelope"] = {
            "M": float(f.envelope.M),
            "rates": [list(r) if isinstance(r, tuple) else r for r in f.envelope.rates],
        }
    return doc


def ingest(doc: dict) -> SequenceTable:
    """Parse a sequence document; validates shapes and finiteness."""
    if not isinstance(doc, dict):
        raise SchemaError("sequence document must be an object")
    try:
        return _ingest(doc)
    except KeyError as e:
        raise SchemaError(f"missing field {e}") from e
    except (TypeError, ValueError, DimensionMismatch) as e:
        raise SchemaError(f"bad sequence document: {e}") from e


def _ingest(doc: dict) -> SequenceTable:
    n = int(doc["n"])
    value_kind = doc["value_kind"]
    if value_kind not in _VALUE_KINDS:
        raise SchemaError(f"unknown value kind {value_kind!r}")
    m = int(doc["m"]) if value_kind != "scalar" else None
    domain = _domain_from_doc(doc["domain"])
    support = Box(tuple(doc["support_lo"]), tuple(doc["support_hi"]))
    raw = doc["values"]
    if domain.dim != n or support.dim != n:
        raise SchemaError("domain/support dimension inconsistent with n")
    count = math.prod(support.shape) * math.prod(value_shape(value_kind, m) or (1,))
    if len(raw) != count:
        raise SchemaError(f"values length {len(raw)} != expected {count}")
    flat = np.array([complex(re, im) for re, im in raw])
    if not np.all(np.isfinite(flat)):
        raise SchemaError("non-finite numeric entry in values")
    env = None
    if doc.get("envelope") is not None:
        e = doc["envelope"]
        rates = tuple(tuple(r) if isinstance(r, (list, tuple)) else float(r) for r in e["rates"])
        env = Envelope(float(e["M"]), rates)
        if env.dim != n:
            raise SchemaError("envelope rates dimension inconsistent with n")
    return SequenceTable(domain, support, flat, value_kind, m, env)


def save(f: SequenceTable, path) -> None:
    with open(path, "w") as fh:
        json.dump(emit(f), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> SequenceTable:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}") from e
    return ingest(doc)
