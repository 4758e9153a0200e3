"""Benchmark workloads: seeded inputs, one cycle of ops each, and output checks.

Every workload has a fixed cycle of op slots whose sizes never depend on the
seed; the seed draws the values (table entries, envelope rates, matrices,
orders, evaluation points).  So the computed work counts of a cycle repeat
exactly across runs and seeds, and a run of whole cycles always holds the
same mix of op sizes.  Every cycle runs the same inputs: zlattice keeps no
cache between calls, so a repeated input costs what a fresh one does.

Each op's ``check`` compares its output with a reference using the tolerances
of the test suite and returns None on success or a reason string.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zlattice import fixtures
from zlattice.convolution import conv_axes, conv_general
from zlattice.fractional import cesaro, cesaro_values, weyl_transform_identity_check
from zlattice.lattice import (
    Box,
    Envelope,
    FullLattice,
    SequenceTable,
    load,
    nonneg_orthant,
    save,
    value_shape,
)
from zlattice.solver import MultiTermSymbol, VolterraTerm, residual, solve
from zlattice.ztransform import eval_forward, forward_evaluator, invert_contour

ROOT = Path(__file__).resolve().parent.parent

# tolerances of the test suite
ROUND_TRIP_ABS = 1e-10  # criterion 5
PENCIL_TOL = 1e-8  # criterion 8 and the CLI's default solve --tol
WEYL_LEDGER_SLACK = 10.0  # criterion 9: residual <= 10 x ledger
WEYL_IDENTITY_REL = 1e-9  # criterion 7
SEMIGROUP_REL = 1e-12  # criterion 6


@dataclass
class Op:
    label: str
    run: Callable  # run(ctx) -> result
    check: Callable  # check(result) -> None | reason


@dataclass
class Workload:
    sizes: dict
    ops: list  # one cycle of ops, run in this order


def _fail_if(bad: bool, reason: str):
    return reason if bad else None


def _unit_phases(rng, shape):
    """Complex entries of modulus in [0.5, 1] with uniform phase."""
    return rng.uniform(0.5, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))


def _enveloped_table(rng, kind, m, span):
    """2-D table on N0^2 with a seeded envelope M r1^k1 r2^k2 that holds entrywise."""
    rates = tuple(float(r) for r in rng.uniform(0.5, 0.9, 2))
    M = float(rng.uniform(1.0, 2.0))
    vshape = value_shape(kind, m)
    k = np.arange(span + 1)
    env = M * np.outer(rates[0] ** k, rates[1] ** k)
    # Frobenius norm <= 1 bounds the vector and matrix 2-norms by 1
    u = _unit_phases(rng, env.shape + vshape) / math.sqrt(math.prod(vshape))
    vals = env.reshape(env.shape + (1,) * len(vshape)) * u
    return SequenceTable(
        nonneg_orthant(2), Box((0, 0), (span, span)), vals, kind, m, Envelope(M, rates)
    )


def _max_rel(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


# ---------------------------------------------------------------------------
# invert_table_2d
# ---------------------------------------------------------------------------

# spans 8-10 keep one round trip near half a second, so a run holds 30 or
# more and the tail percentile lies above the median
INVERT_SLOTS = (("scalar", None, 8), ("vector", 2, 9), ("matrix", 2, 10))


def _round_trip_op(f):
    def run(ctx):
        return invert_contour(forward_evaluator(f), (1.0, 1.0), f.support)

    def check(res):
        dev = float(np.max(np.abs(res.table.values - f.values)))
        return _fail_if(dev > ROUND_TRIP_ABS, f"round trip dev {dev:.3e}")

    return run, check


def invert_table_2d(rng, workdir):
    ops = [
        Op(f"invert {kind} span {span}", *_round_trip_op(_enveloped_table(rng, kind, m, span)))
        for kind, m, span in INVERT_SLOTS
    ]
    sizes = {
        "tables": [f"{kind}{'' if m is None else f' m={m}'} 0:{s}^2" for kind, m, s in INVERT_SLOTS],
        "envelope": "M in [1,2], rates in [0.5,0.9] on N0^2",
        "radii": [1.0, 1.0],
        "grid": "default (2 span + 16 per axis)",
    }
    return Workload(sizes, ops)


# ---------------------------------------------------------------------------
# solve_pencil_2d
# ---------------------------------------------------------------------------

PENCIL_KERNEL = Box((0, 0), (16, 16))
PENCIL_OUT = Box((0, 0), (12, 12))
PENCIL_CHECK = Box((1, 1), (10, 10))
PENCIL_DATA = 10


def _gaussian_data(rng):
    """exp(-|k|^2) times seeded unit-disk factors; the fixture's envelope still holds."""
    k = np.arange(PENCIL_DATA + 1)
    g = np.exp(-(k[:, None] ** 2 + k[None, :] ** 2)) * _unit_phases(rng, (k.size, k.size))
    rate = math.exp(-1.0)
    return SequenceTable(
        nonneg_orthant(2), Box((0, 0), (PENCIL_DATA,) * 2), g, envelope=Envelope(1.0, (rate, rate))
    )


def _causal_pencil_solution(d, f):
    """u(k, l) = sum_{j >= 1} A^-j f(k-j, l-j) for A = diag(d), data on the ones vector."""
    n = PENCIL_OUT.shape[0]
    F = np.zeros((n, n), dtype=complex)
    F[: PENCIL_DATA + 1, : PENCIL_DATA + 1] = f.values
    u = np.zeros((n, n, len(d)), dtype=complex)
    for j in range(1, n):
        for c, dc in enumerate(d):
            u[j:, j:, c] += dc ** (-j) * F[: n - j, : n - j]
    return u


def _pencil_op(d, f):
    P = fixtures.scaling_pencil(np.diag(d).astype(complex))
    u_ref = _causal_pencil_solution(d, f)
    c = cesaro_values(0.5, 64)
    fv = f.values
    axes_ref = np.array(
        [[np.sum(c[: k1 + 1][::-1] * fv[: k1 + 1, k2]) for k2 in range(fv.shape[1])]
         for k1 in range(fv.shape[0])]
    )

    def run(ctx):
        sol = solve(P, f, (1.0, 1.0), PENCIL_KERNEL, PENCIL_OUT)
        rep = residual(P, sol.u, f, PENCIL_CHECK)
        g = conv_axes(cesaro(0.5, 64), f, (1,), f.support)
        return sol, rep, g

    def check(out):
        sol, rep, g = out
        res = rep["max_residual"]
        dev = float(np.max(np.abs(sol.u.values - u_ref)))
        gdev = float(np.max(np.abs(g.values - axes_ref))) / float(np.max(np.abs(axes_ref)))
        return (
            _fail_if(res > PENCIL_TOL, f"residual {res:.3e}")
            or _fail_if(dev > PENCIL_TOL, f"solution dev {dev:.3e}")
            or _fail_if(gdev > SEMIGROUP_REL, f"axes product rel dev {gdev:.3e}")
        )

    return run, check


def solve_pencil_2d(rng, workdir):
    d = rng.uniform(2.0, 3.0, 2)
    ops = [Op("pencil solve+residual+axes", *_pencil_op(d, _gaussian_data(rng)))]
    sizes = {
        "pencil": "A u(k+1,l+1) - u(k,l) = f, A = diag(U[2,3]^2), m=2",
        "kernel": "0:16^2",
        "out": "0:12^2",
        "check": "1:10^2",
        "data": "exp(-|k|^2) x U[0.5,1] e^{i phi} on 0:10^2",
        "axes_product": "conv_axes(cesaro(0.5,64), f, (1,), 0:10^2)",
    }
    return Workload(sizes, ops)


# ---------------------------------------------------------------------------
# volterra_weyl_1d
# ---------------------------------------------------------------------------

WEYL_SLOTS = ((0.3, 1, 128), (0.3, 2, 256), (0.5, 1, 192), (0.5, 2, 128), (1.4, 1, 256), (1.4, 2, 192))
# the longest product stays near the cost of the longest Weyl solves: one op
# kind far above the rest, once per cycle, would put the tail percentile on
# the edge of its cluster and make it jump with the number of cycles run
SEMIGROUP_SLOTS = (64, 128, 192)
IDENTITY_ORDER, IDENTITY_SPAN, IDENTITY_KERNEL = 2, 8, 64


def _weyl_op(alpha, A, L):
    f = SequenceTable.delta(1)

    def run(ctx):
        S = fixtures.weyl_fractional_problem(alpha, A, kernel_len=L)
        sol = solve(S, f, (1.3,), Box((0,), (80,)), Box((0,), (48,)))
        return sol, residual(S, sol.u, f, Box((4,), (32,)))

    def check(out):
        sol, rep = out
        res = rep["max_residual"]
        return _fail_if(
            not res <= WEYL_LEDGER_SLACK * sol.ledger,
            f"residual {res:.3e} > 10 x ledger {sol.ledger:.3e}",
        )

    return run, check


def _geometric_kernel(lam):
    return SequenceTable.from_function(
        nonneg_orthant(1), Box((0,), (60,)), lambda k: lam ** k[0], envelope=Envelope(1.0, (lam,))
    )


def _multiterm_op(rng):
    lam1, c1 = rng.uniform(0.2, 0.4), rng.uniform(0.3, 0.5)
    lam2, c2 = rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.15)
    S = MultiTermSymbol(
        1, 1, np.eye(1),
        (VolterraTerm(_geometric_kernel(lam1), (1,), c1 * np.eye(1)),
         VolterraTerm(_geometric_kernel(lam2), (2,), c2 * np.eye(1))),
        np.eye(1),
    )
    f = SequenceTable.delta(1)

    def run(ctx):
        sol = solve(S, f, (1.0,), Box((-10,), (60,)), Box((-10,), (40,)))
        return sol, residual(S, sol.u, f, Box((0,), (24,)))

    def check(out):
        sol, rep = out
        res = rep["max_residual"]
        # the test's bound is vacuous when the ledger is infinite, so the CLI's
        # solve tolerance is checked as well
        return _fail_if(
            not res <= max(WEYL_LEDGER_SLACK * sol.ledger, 1e-10) or not res <= PENCIL_TOL,
            f"residual {res:.3e}, ledger {sol.ledger:.3e}",
        )

    return run, check


def _identity_op(rng):
    gamma = float(rng.uniform(0.1, 1.9))
    n = IDENTITY_SPAN + 1
    u = SequenceTable(FullLattice(1), Box((0,), (IDENTITY_SPAN,)), rng.normal(size=n) + 1j * rng.normal(size=n))
    pts = [(float(rng.uniform(1.2, 2.5)) * np.exp(2j * np.pi * rng.uniform()),) for _ in range(3)]

    def run(ctx):
        return weyl_transform_identity_check(cesaro(gamma, IDENTITY_KERNEL), IDENTITY_ORDER, u, pts)

    def check(rep):
        dev = rep["max_rel_deviation"]
        return _fail_if(not dev <= WEYL_IDENTITY_REL, f"identity rel dev {dev:.3e}")

    return run, check


def _semigroup_op(rng, K):
    a, b = (float(x) for x in rng.uniform(0.1, 2.0, 2))
    ref = cesaro_values(a + b, K)

    def run(ctx):
        return conv_general(cesaro(a, K), cesaro(b, K), Box((0,), (K,)), enforce=False)

    def check(out):
        dev = _max_rel(out.values.real, ref)
        return _fail_if(not dev <= SEMIGROUP_REL, f"semigroup rel dev {dev:.3e}")

    return run, check


def volterra_weyl_1d(rng, workdir):
    ops = []
    for alpha, m, L in WEYL_SLOTS:
        A = np.eye(m) + 0.3 * rng.normal(size=(m, m))
        ops.append(Op(f"weyl alpha={alpha} m={m} len={L}", *_weyl_op(alpha, A, L)))
    ops.append(Op("multi-term volterra", *_multiterm_op(rng)))
    ops.append(Op("weyl transform identity", *_identity_op(rng)))
    for K in SEMIGROUP_SLOTS:
        ops.append(Op(f"cesaro semigroup 0:{K}", *_semigroup_op(rng, K)))
    sizes = {
        "weyl_solves": [f"alpha={a} m={m} kernel_len={L}" for a, m, L in WEYL_SLOTS],
        "weyl_windows": "radius 1.3, kernel 0:80, out 0:48, check 4:32, A = I + 0.3 N(0,1)",
        "multi_term": "2 geometric kernels 0:60, shifts 1 and 2, kernel -10:60, out -10:40, check 0:24",
        "identity": f"weyl_am order {IDENTITY_ORDER}, cesaro 0:{IDENTITY_KERNEL}, u 0:{IDENTITY_SPAN}, 3 points",
        "semigroup": [f"cesaro(a,{K}) * cesaro(b,{K}), a,b in [0.1,2]" for K in SEMIGROUP_SLOTS],
    }
    return Workload(sizes, ops)


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

BIG_SPAN = 63
CLI_INVERT_SPAN = 6


def _fmt_point(z):
    return ",".join(f"{c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i" for c in z)


def _parse_point(text):
    return tuple(complex(p.replace("i", "j")) for p in text.split(","))


class CliCommand:
    """One ``zlattice`` invocation as a child process, timed from outside.

    Untraced it runs ``python -m zlattice.cli``; traced it runs the same
    arguments through ``clichild.py``, which installs the tracer first and
    writes its spans to a file the parent merges under the op's span.
    """

    def __init__(self, label, argv, out, reference):
        self.label = label
        self.argv = argv
        self.out = out  # --out path, or None when stdout is the artifact
        self.reference = reference  # first-repeat content check
        self.first: bytes | None = None

    def run(self, ctx):
        env = dict(os.environ, PYTHONPATH="src")
        if ctx.tracer is not None:
            spans = Path(ctx.workdir) / "child-spans.json"
            env["ZLBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, str(ROOT / "bench" / "clichild.py"), *self.argv]
        else:
            cmd = [sys.executable, "-m", "zlattice.cli", *self.argv]
        stdout_path = Path(ctx.workdir) / "child-stdout.txt"
        with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
        if ctx.tracer is not None and spans.exists():
            first_child = len(ctx.tracer.spans)
            ctx.tracer.merge(spans, ctx.tracer.current())
            spans.unlink()
            overhead_path = Path(f"{spans}.overhead")
            overhead = json.loads(overhead_path.read_text())
            overhead_path.unlink()
            name, _p, c0, c1, _c = ctx.tracer.spans[first_child]
            ctx.cli_startup.append(wall - (c1 - c0) - overhead["install_s"] - overhead["dump_s"])
        return proc.returncode, stdout_path.read_bytes()

    def check(self, result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        artifact = Path(self.out).read_bytes() if self.out else stdout
        if self.first is None:
            self.first = artifact
            return self.reference(stdout)
        return _fail_if(artifact != self.first, "output differs from the first repeat")


def cli_batch(rng, workdir):
    w = Path(workdir)
    a1, a2, a3 = (float(x) for x in rng.uniform(0.1, 1.5, 3))
    save(cesaro(a1, 31), w / "ca.json")
    save(cesaro(a2, 31), w / "cb.json")
    small = _enveloped_table(rng, "vector", 2, CLI_INVERT_SPAN)
    save(small, w / "small.json")
    big = _enveloped_table(rng, "vector", 2, BIG_SPAN)
    save(big, w / "big.json")
    rates = big.envelope.rates
    z = tuple(
        complex(float(rng.uniform(r + 0.1, 2.0)) * np.exp(2j * np.pi * rng.uniform()))
        for r in rates
    )
    at = _fmt_point(z)
    eval_ref = np.atleast_1d(eval_forward(big, _parse_point(at)))
    lam = float(rng.uniform(0.3, 0.7))
    problem = {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [{"j": [1], "A": [[[1.0, 0.0]]]}, {"j": [0], "A": [[[-lam, 0.0]]]}],
        "C": [[[1.0, 0.0]]],
        "data": {"generator": "delta"},
    }
    (w / "problem.json").write_text(json.dumps(problem))
    p = float(rng.uniform(0.2, 0.5))

    def rel_check(path, ref, what):
        def check(_stdout):
            dev = _max_rel(load(path).values.real, ref)
            return _fail_if(not dev <= SEMIGROUP_REL, f"{what} rel dev {dev:.3e}")
        return check

    def invert_check(_stdout):
        dev = float(np.max(np.abs(load(w / "inv.json").values - small.values)))
        return _fail_if(not dev <= ROUND_TRIP_ABS, f"round trip dev {dev:.3e}")

    def eval_check(stdout):
        got = np.array([complex(t.replace("i", "j")) for t in stdout.decode().strip().split(",")])
        dev = float(np.max(np.abs(got - eval_ref))) / float(np.max(np.abs(eval_ref)))
        return _fail_if(not dev <= SEMIGROUP_REL, f"eval rel dev {dev:.3e}")

    def solve_check(_stdout):
        u = load(w / "u.json")
        ref = np.array([0.0 if k <= 0 else lam ** (k - 1) for k in range(u.support.lo[0], u.support.hi[0] + 1)])
        dev = float(np.max(np.abs(np.asarray(u.values).reshape(-1) - ref)))
        return _fail_if(not dev <= PENCIL_TOL, f"solution dev {dev:.3e}")

    def pass_check(stdout):
        return _fail_if(not stdout.startswith(b"PASS"), f"fixture output {stdout[:60]!r}")

    commands = [
        CliCommand(
            "fractional cesaro",
            ["fractional", "cesaro", "--alpha", repr(a3), "--len", "64", "--out", str(w / "cesaro.json")],
            w / "cesaro.json", rel_check(w / "cesaro.json", cesaro_values(a3, 63), "cesaro"),
        ),
        CliCommand(
            "convolve faltung",
            ["convolve", "--mode", "faltung", "--a", str(w / "ca.json"), "--b", str(w / "cb.json"),
             "--window", "0:31", "--out", str(w / "conv.json")],
            w / "conv.json", rel_check(w / "conv.json", cesaro_values(a1 + a2, 31), "faltung"),
        ),
        CliCommand(
            "transform invert",
            ["transform", "invert", "--seq", str(w / "small.json"), "--radii", "1.0,1.0",
             "--window", f"0:{CLI_INVERT_SPAN},0:{CLI_INVERT_SPAN}", "--out", str(w / "inv.json")],
            w / "inv.json", invert_check,
        ),
        CliCommand(
            "transform eval",
            ["transform", "eval", "--seq", str(w / "big.json"), f"--at={at}"],
            None, eval_check,
        ),
        CliCommand(
            "solve --report",
            ["solve", "--problem", str(w / "problem.json"), "--radii", "1.0",
             "--kernel-window", "0:40", "--check-window", "1:28",
             "--out", str(w / "u.json"), "--report", str(w / "report.json")],
            w / "u.json", solve_check,
        ),
        CliCommand(
            "fixtures probability",
            ["fixtures", "probability", "--window", "8", "--p", repr(p), "--q", repr(1.0 - p),
             "--out", str(w / "fixture.json")],
            w / "fixture.json", pass_check,
        ),
    ]
    ops = [Op(c.label, c.run, c.check) for c in commands]
    sizes = {
        "commands": [c.label for c in commands],
        "faltung": "cesaro(a,31) * cesaro(b,31), window 0:31",
        "invert": f"vector m=2 0:{CLI_INVERT_SPAN}^2 with envelope, radii 1,1",
        "eval": f"vector m=2 0:{BIG_SPAN}^2 with envelope (about 0.5 MB of JSON)",
        "solve": "u(k+1) - lam u(k) = delta, kernel 0:40, check 1:28",
        "fixture": "probability --window 8",
        "cesaro": "--len 64",
    }
    return Workload(sizes, ops)


WORKLOADS = {
    "invert_table_2d": invert_table_2d,
    "solve_pencil_2d": solve_pencil_2d,
    "volterra_weyl_1d": volterra_weyl_1d,
    "cli_batch": cli_batch,
}


def build(name, seed, workdir) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
