"""Problem-document ingest: JSON descriptions of pencils and Volterra symbols.

Document layout:
{ "kind": "pencil" | "volterra_zn" | "weyl_1d" | "mixed_axes",
  "n": int, "m": int,
  "terms": [...],                # shape depends on kind, see below
  "C": matrix,                   # rows of [re, im] pairs
  "data": sequence-doc | {"generator": "delta"|"geometric"|"gaussian_decay", ...} }

Kernels inside terms are either an inline sequence document or
{"cesaro": {"alpha": real, "len": int}}.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fixtures
from .errors import DimensionMismatch, SchemaError
from .fractional import cesaro
from .lattice import SequenceTable, ingest
from .solver import (
    MixedAxesSymbol,
    MixedAxesTerm,
    MultiTermSymbol,
    OperatorPencil,
    Symbol,
    VolterraTerm,
    WeylFractionalSymbol,
    WeylTerm,
)


def matrix_from_doc(doc, m: int | None = None) -> np.ndarray:
    try:
        rows = [[complex(re, im) for re, im in row] for row in doc]
        out = np.array(rows, dtype=complex)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad matrix document: {e}") from e
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {out.shape}")
    if m is not None and out.shape[0] != m:
        raise SchemaError(f"matrix size {out.shape[0]} != m={m}")
    if not np.all(np.isfinite(out)):
        raise SchemaError("non-finite matrix entry")
    return out


def kernel_from_doc(doc) -> SequenceTable:
    if not isinstance(doc, dict):
        raise SchemaError("kernel must be an object")
    if "cesaro" in doc:
        spec = doc["cesaro"]
        try:
            return cesaro(float(spec["alpha"]), int(spec["len"]))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad cesaro kernel spec: {e}") from e
    return ingest(doc)


def data_from_doc(doc, n: int) -> SequenceTable:
    if not isinstance(doc, dict):
        raise SchemaError("data must be an object")
    if "generator" not in doc:
        return ingest(doc)
    gen = doc["generator"]
    if gen == "delta":
        return SequenceTable.delta(n)
    if gen == "geometric":
        if n != 1:
            raise SchemaError("geometric generator is one-dimensional")
        return fixtures.geometric_table(
            float(doc.get("lambda", 0.5)), int(doc.get("len", 32))
        )
    if gen == "gaussian_decay":
        return fixtures.gaussian_table(n, int(doc.get("len", 12)))
    raise SchemaError(f"unknown data generator {gen!r}")


def problem_from_doc(doc) -> tuple[Symbol, SequenceTable]:
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be an object")
    try:
        kind = doc["kind"]
        n = int(doc.get("n", 1))
        m = int(doc["m"])
        C = matrix_from_doc(doc["C"], m)
        terms = doc["terms"]
        return _dispatch(kind, n, m, C, terms, doc)
    except KeyError as e:
        raise SchemaError(f"missing field {e}") from e
    except (TypeError, ValueError, ArithmeticError, DimensionMismatch) as e:
        raise SchemaError(f"bad problem document: {e}") from e


def _dispatch(kind, n, m, C, terms, doc) -> tuple[Symbol, SequenceTable]:
    zero = [[[0.0, 0.0]] * m] * m
    mat = functools.partial(matrix_from_doc, m=m)

    def term(make, t, *args):  # every term constructor takes the kernel first and A last
        return make(kernel_from_doc(t["kernel"]), *args, mat(t["A"]))

    if kind == "pencil":
        prob = OperatorPencil(n, m, tuple((tuple(t["j"]), mat(t["A"])) for t in terms), C)
    elif kind == "volterra_zn":
        B = mat(doc.get("B", zero))
        prob = MultiTermSymbol(n, m, B, tuple(term(VolterraTerm, t, t["shift"]) for t in terms), C)
    elif kind == "weyl_1d":
        n = 1
        terms = tuple(term(WeylTerm, t, t["order"], t.get("shift", 0)) for t in terms)
        prob = WeylFractionalSymbol(m, terms, mat(doc.get("A0", zero)), doc.get("k0", 0), C)
    elif kind == "mixed_axes":
        terms = tuple(term(MixedAxesTerm, t, tuple(t["axes"])) for t in terms)
        prob = MixedAxesSymbol(n, m, terms, C)
    else:
        raise SchemaError(f"unknown problem kind {kind!r}")

    if "data" not in doc:
        raise SchemaError("missing field 'data'")
    f = data_from_doc(doc["data"], n)
    if f.dim != n or f.vshape[:1] not in ((), (m,)):
        raise SchemaError(f"data dimension {f.dim}, value shape {f.vshape}: problem n={n}, m={m}")
    return prob, f
