"""zlattice benchmark: closed-loop workloads with output checks and a traced run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the repository root: one process, one op at a time,
each op started only after the previous one finished and was checked.  Ops
come in fixed cycles (see ``workloads.py``); the run keeps starting whole
cycles while the next one is expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that import zlattice
  and build the workload's inputs (for ``cli_batch`` also writing its JSON
  documents), ``SETUP_REPEATS`` of them per run, started between ops at even
  intervals over the run so that they sample the CPU's speed over all of it;
* ``op_p50_ref`` and ``op_tail_ref``: the median op time and the op time at
  the highest percentile with at least ten samples beyond it (the 11th
  largest), each op's wall time counted in units of the reference snippet
  (``ref_time``) timed right before and after it; the percentile and sample
  count are in the context line;
* ``ops_per_kref``: ops completed per 1000 reference-snippet times of op time
  (checks excluded);
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  CLI child for ``cli_batch``;
* ``pass_frac``: ops whose output passed its check, over ops attempted.  It
  is ``1 - fail_frac``; a benchmark metric may never read 0, so the failed
  share is carried by this complement and by ``failed``/``attempted``.

On shared cores a CPU's speed can change by half within seconds and drift
for minutes, with CPU time moving alongside wall time, so a run's median op
time in seconds says as much about its neighbours as about zlattice.  Counting
each op in reference-snippet units cancels that; the same figures in seconds
(``op_s_p50``, ``op_s_tail``, ``ops_per_s``) and the median snippet time are
printed under ``wall_seconds`` in the context line, with their units, and are
not gated.

``--trace 1`` alternates untraced and traced cycles and prints per-layer
metrics per traced op (see ``tracer.py``); ``trace.overhead_frac`` compares
the two kinds of cycle, in reference-snippet units.  The second-to-last
stdout line is the run context; the last is the result object.  Full results
and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ref": "ref", "op_tail_ref": "ref",
    "ops_per_kref": "1/kref", "peak_rss_mb": "MB", "pass_frac": "ratio",
}
# per-layer metric -> unit; names follow "<module>.<function>.<kind>"
SPAN_METRICS = {
    "ztransform.invert_contour": ("calls", "s", "self_s"),
    "ztransform.eval_forward": ("calls", "s"),
    "convolution.conv_general": ("calls", "s"),
    "convolution.conv_axes": ("calls", "s"),
    "solver.solve": ("calls", "s", "self_s"),
    "solver.symbol_eval": ("calls", "s"),
    "solver.residual": ("s",),
    "fractional.cesaro": ("self_s",),
    "fractional.weyl_am": ("self_s",),
    "fractional.forward_difference": ("self_s",),
    "lattice.load": ("s",),
    "lattice.save": ("s",),
    "lattice.SequenceTable": ("calls", "s"),
    "cli.main": ("s",),
}


class Ctx:
    """State an op may need: the tracer when traced, and CLI child measurements."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.tracer = None
        self.child_peak_kb = 0
        self.cli_startup: list[float] = []


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that only sets the workload up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def ref_time() -> float:
    """Wall time of a fixed reference snippet: a Python loop and small numpy
    calls, the kind of code zlattice's per-point loops run."""
    import numpy as np

    a = np.arange(16.0)
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(600):
        a.sum()
        a * 2.0
    return time.perf_counter() - t0


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def run_loop(wl, args, ctx, tracer, setup_times):
    """Whole cycles until the next one would end past ``--seconds``.

    The reference snippet is timed between ops, so each op has one timing
    right before and one right after it.  Untraced runs also time a fresh
    set-up every ``--seconds / SETUP_REPEATS`` seconds, between ops.
    """
    records = []  # one dict per op
    cycle_times = []
    start = time.perf_counter()
    min_cycles = 2 if args.trace else 1
    setups = 0 if args.trace else SETUP_REPEATS
    ref_prev = ref_time()
    c = 0
    while True:
        cycle_start = time.perf_counter()
        traced = bool(args.trace) and c % 2 == 1
        ctx.tracer = tracer if traced else None
        if traced:
            # ops call zlattice through names imported into workloads.py
            tracer.install(extra_modules=(sys.modules["workloads"],))
        for op in wl.ops:
            if len(setup_times) < setups and (
                time.perf_counter() - start >= len(setup_times) * args.seconds / setups
            ):
                setup_times.append(time_setup(args))
                ref_prev = ref_time()
            rec = {"cycle": c, "op": op.label, "traced": traced, "root": None}
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.root("op") as rec["root"]:
                        result = op.run(ctx)
                else:
                    result = op.run(ctx)
                error = None
            except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
                error = f"{type(e).__name__}: {e}"
            rec["s"] = time.perf_counter() - t0
            ref_next = ref_time()
            rec["ref_s"] = (ref_prev + ref_next) / 2
            ref_prev = ref_next
            if error is None:
                try:
                    error = op.check(result)
                except Exception as e:  # noqa: BLE001 - a crashing check fails the op
                    error = f"check raised {type(e).__name__}: {e}"
            rec["error"] = error
            records.append(rec)
        if traced:
            tracer.uninstall()
        cycle_times.append(time.perf_counter() - cycle_start)
        c += 1
        elapsed = time.perf_counter() - start
        if c >= min_cycles and elapsed + statistics.mean(cycle_times) > args.seconds:
            while len(setup_times) < setups:
                setup_times.append(time_setup(args))
            return records


def end_to_end(records, setup_times, ctx):
    times = [r["s"] for r in records]
    rel = [r["s"] / r["ref_s"] for r in records]
    failed = sum(r["error"] is not None for r in records)
    tail_rel, tail_pct = tail(rel)
    # a workload that runs CLI children reports the largest of them
    peak_kb = ctx.child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": tail_rel,
        "ops_per_kref": 1000.0 * len(rel) / sum(rel),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_frac": (len(times) - failed) / len(times),
    }
    seconds = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail(times)[0],
        "ops_per_s": len(times) / sum(times),
        "ref_s_p50": statistics.median(r["ref_s"] for r in records),
    }
    extra = {"op_tail_percentile": tail_pct, "op_samples": len(times),
             "fail_frac": failed / len(times), "setup_samples": setup_times,
             "wall_seconds": {k: {"value": v, "unit": "1/s" if k == "ops_per_s" else "s"}
                              for k, v in seconds.items()}}
    return values, extra


def per_layer(records, tracer, ctx):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    agg = tracing.aggregate(tracer.spans, [r["root"] for r in traced])
    values = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            values[f"{name}.{kind}"] = agg[kind].get(name, 0) / n
    for key in tracing.COMPUTED:
        values[key] = agg["counts"].get(key, 0) / n
    ef_s = agg["s"].get("ztransform.eval_forward", 0.0)
    conv_s = agg["s"].get("convolution.conv_general", 0.0) + agg["s"].get("convolution.conv_axes", 0.0)
    values["ztransform.terms_per_s"] = (
        agg["counts"].get("ztransform.eval_forward.terms", 0) / ef_s if ef_s else 0.0
    )
    values["convolution.mac_per_s"] = agg["counts"].get("convolution.mac", 0) / conv_s if conv_s else 0.0
    values["cli.startup_s"] = sum(ctx.cli_startup) / n

    def per_cycle(rs):
        return sum(r["s"] / r["ref_s"] for r in rs) / len({r["cycle"] for r in rs})

    values["trace.overhead_frac"] = per_cycle(traced) / per_cycle(plain) - 1.0

    # the computed counts of every traced cycle must be identical
    cycles = sorted({r["cycle"] for r in traced})
    seen = []
    for c in cycles:
        roots = [r["root"] for r in traced if r["cycle"] == c]
        counts = tracing.aggregate(tracer.spans, roots)["counts"]
        seen.append({k: counts.get(k, 0) for k in tracing.COMPUTED})
    repeat_ok = all(s == seen[0] for s in seen)
    extra = {"traced_ops": n, "untraced_ops": len(plain), "computed_per_cycle": seen[0],
             "computed_repeat": repeat_ok}
    return values, extra, repeat_ok


def context(args, sizes):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "sizes": sizes,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so children are reaped and files removed


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "zlattice" / "__init__.py").is_file():
        print(f"error: no zlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, workdir)
            return 0
        wl = workloads.build(args.workload, args.seed, workdir)
        tracer = tracing.Tracer()
        ctx = Ctx(workdir)
        setup_times = []
        records = run_loop(wl, args, ctx, tracer, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["error"] is not None for r in records)
    correct = failed == 0
    info = context(args, wl.sizes)
    if args.trace:
        values, extra, repeat_ok = per_layer(records, tracer, ctx)
        correct = correct and repeat_ok
        units = {k: _layer_unit(k) for k in values}
    else:
        values, extra = end_to_end(records, setup_times, ctx)
        units = END_TO_END_UNITS
    info.update(extra)
    info["failures"] = [{"op": r["op"], "cycle": r["cycle"], "error": r["error"]}
                        for r in records if r["error"] is not None]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        doc = {"context": info, "metrics": values, "ops": records}
        if args.trace:
            doc["spans"] = tracer.spans
        json.dump(doc, fh)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith(("_s", ".s")) and not name.endswith("per_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.startswith("lattice.json_bytes"):
        return "B"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
