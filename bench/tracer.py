"""In-memory span tracer that wraps zlattice's public functions from outside.

Each wrapped call records a span (name, parent, start, end) and, for the
functions listed in ``COUNTERS``, work counts computed from the call's input
shapes.  Wrappers are installed at every module binding of a function, not
only in its defining module: ``solver`` imports ``invert_contour``,
``conv_general``, ``eval_forward`` and ``symbol_eval`` by name, ``fractional``
imports ``conv_general`` and ``convolution`` imports ``eval_forward``, so
patching the defining module alone would let those nested calls escape.

Spans are recorded only inside an open root span (one benchmark op), so
checks run between ops leave no trace.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the function to wrap
TRACED = {
    "lattice.load": ("zlattice.lattice", "load"),
    "lattice.save": ("zlattice.lattice", "save"),
    "ztransform.invert_contour": ("zlattice.ztransform", "invert_contour"),
    "ztransform.eval_forward": ("zlattice.ztransform", "eval_forward"),
    "convolution.conv_general": ("zlattice.convolution", "conv_general"),
    "convolution.conv_axes": ("zlattice.convolution", "conv_axes"),
    "fractional.cesaro": ("zlattice.fractional", "cesaro"),
    "fractional.weyl_am": ("zlattice.fractional", "weyl_am"),
    "fractional.forward_difference": ("zlattice.fractional", "forward_difference"),
    "solver.solve": ("zlattice.solver", "solve"),
    "solver.residual": ("zlattice.solver", "residual"),
    "solver.symbol_eval": ("zlattice.solver", "symbol_eval"),
}
CTOR = "lattice.SequenceTable"  # constructor calls, wrapped on the class itself


# ---------------------------------------------------------------------------
# Work counts computed from input shapes (never from timing)
# ---------------------------------------------------------------------------


def _overlap(k, a_lo, a_hi, b_lo, b_hi):
    """Number of s in [a_lo, a_hi] with k - s in [b_lo, b_hi]."""
    return max(0, min(a_hi, k - b_lo) - max(a_lo, k - b_hi) + 1)


def _axis_pairs(win_lo, win_hi, a_lo, a_hi, b_lo, b_hi):
    return sum(_overlap(k, a_lo, a_hi, b_lo, b_hi) for k in range(win_lo, win_hi + 1))


def _value_macs(a, b):
    """Scalar multiply-accumulates per lattice-point pair, as ``_mul`` does them."""
    av, bv = a.vshape, b.vshape
    if len(av) == 2 and len(bv) >= 1:
        return av[0] * av[1] * (bv[1] if len(bv) == 2 else 1)
    return max(math.prod(av), math.prod(bv))


def _ledger_points(a, b, window):
    has_env = a.envelope is not None or b.envelope is not None
    return math.prod(window.shape) if has_env else 0


def _count_conv_general(args, kwargs, result):
    a, b, window = (list(args) + [None] * 3)[:3]
    window = kwargs.get("window", window)
    pairs = 1
    for i in range(window.dim):
        pairs *= _axis_pairs(
            window.lo[i], window.hi[i],
            a.support.lo[i], a.support.hi[i], b.support.lo[i], b.support.hi[i],
        )
    return {
        "convolution.mac": pairs * _value_macs(a, b),
        "convolution.ledger_points": _ledger_points(a, b, window),
    }


def _count_conv_axes(args, kwargs, result):
    a, b, axes, window = (list(args) + [None] * 4)[:4]
    axes = tuple(kwargs.get("axes", axes))
    window = kwargs.get("window", window)
    if not axes:
        return {}
    ax0 = [j - 1 for j in axes]
    pairs = 1
    for j in range(window.dim):
        lo, hi = window.lo[j], window.hi[j]
        if j in ax0:
            i = ax0.index(j)
            pairs *= _axis_pairs(
                lo, hi, a.support.lo[i], a.support.hi[i], b.support.lo[j], b.support.hi[j]
            )
        else:  # pass-through axis: one pair where b is stored
            pairs *= max(0, min(hi, b.support.hi[j]) - max(lo, b.support.lo[j]) + 1)
    return {
        "convolution.mac": pairs * math.prod(b.vshape),
        "convolution.ledger_points": _ledger_points(a, b, window),
    }


def _count_invert(args, kwargs, result):
    from zlattice.ztransform import GRID_GUARD

    window = kwargs.get("window", args[2] if len(args) > 2 else None)
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    if grid is None:
        grid = tuple(2 * s + GRID_GUARD for s in window.span())
    return {"ztransform.nodes": math.prod(int(g) for g in grid)}


def _count_eval_forward(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return {"ztransform.eval_forward.terms": math.prod(f.support.shape)}


def _count_save(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"lattice.json_bytes_written": os.path.getsize(path)}


def _count_load(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"lattice.json_bytes_read": os.path.getsize(path)}


COUNTERS = {
    "convolution.conv_general": _count_conv_general,
    "convolution.conv_axes": _count_conv_axes,
    "ztransform.invert_contour": _count_invert,
    "ztransform.eval_forward": _count_eval_forward,
    "lattice.save": _count_save,
    "lattice.load": _count_load,
}
COMPUTED = (
    "ztransform.nodes",
    "ztransform.eval_forward.terms",
    "convolution.mac",
    "convolution.ledger_points",
    "lattice.json_bytes_read",
    "lattice.json_bytes_written",
)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Parent-linked spans kept in memory; one root span per benchmark op.

    A span is ``[name, parent_index, t_start, t_end, counts]``; times are
    ``time.perf_counter`` values, which share one monotonic clock across the
    processes of one machine, so spans written by CLI children merge in.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """Open a root span (one op); yields its index in ``spans``."""
        rec = self._open(name)
        try:
            yield self._stack[-1]
        finally:
            self._close(rec)

    def current(self) -> int:
        return self._stack[-1]

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        """Replace every binding of each traced function in loaded zlattice
        modules and in ``extra_modules`` (callers that imported them by name)."""
        import zlattice.lattice
        import zlattice.solver  # noqa: F401 - loads every traced module

        originals = {}
        for name, (mod, attr) in TRACED.items():
            fn = getattr(sys.modules[mod], attr)
            originals[id(fn)] = self._wrap(name, fn)
        mods = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "zlattice" or name.startswith("zlattice."))
        ]
        for mod in mods + list(extra_modules):
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        cls = zlattice.lattice.SequenceTable
        init = cls.__init__
        self._undo.append((cls, "__init__", init))
        cls.__init__ = self._wrap(CTOR, init)

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    # -- exchange with child processes -------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def merge(self, path, parent):
        """Append spans written by a child, re-rooting its roots under ``parent``."""
        with open(path) as fh:
            child = json.load(fh)
        base = len(self.spans)
        for name, par, t0, t1, counts in child:
            self.spans.append([name, parent if par is None else par + base, t0, t1, counts])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(spans, roots):
    """Per-name busy time, self time, call count and computed counts.

    ``roots`` are the span indices of the ops to include; every span below
    them contributes.  Self time is a span's duration minus its children's.
    """
    root_set = set(roots)
    under = [False] * len(spans)
    for i, (name, par, *_rest) in enumerate(spans):
        under[i] = i in root_set or (par is not None and under[par])
    child_time = defaultdict(float)
    for i, (name, par, t0, t1, _c) in enumerate(spans):
        if under[i] and par is not None:
            child_time[par] += t1 - t0
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, par, t0, t1, c) in enumerate(spans):
        if not under[i] or i in root_set:
            continue
        calls[name] += 1
        busy[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_time[i]
        for key, v in (c or {}).items():
            counts[key] += v
    return {"calls": dict(calls), "s": dict(busy), "self_s": dict(self_s), "counts": dict(counts)}
