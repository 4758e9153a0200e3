"""Batch command-line front end.

Exit codes: 0 success, 1 usage (including a point or dimension the input does
not admit), 2 numerical-tolerance failure, 3 singular symbol, 4 I/O or schema
error.  Result documents are written with sorted keys
and a fixed float format so identical inputs give byte-identical outputs; the
--threads flag (default 1) is accepted for interface compatibility but all
computation is sequential and deterministic regardless.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys

import numpy as np

from . import fixtures, problems
from .errors import DimensionMismatch, PointOutsideRegion, SchemaError, SingularSymbol
from .errors import ZLatticeError
from .fractional import cesaro, weyl_am
from .lattice import Box, load, open_path, read_json, save
from .solver import residual, solve, uniqueness_probe
from .ztransform import (
    Outside,
    PolyAnnulus,
    TransformEvaluator,
    eval_forward,
    forward_evaluator,
    invert_contour,
    propose_radii,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

# the exit code of each error class; the first matching row wins
_ERROR_EXITS = (
    (SingularSymbol, EXIT_SINGULAR),
    ((SchemaError, OSError), EXIT_IO),
    ((DimensionMismatch, PointOutsideRegion), EXIT_USAGE),
    (ZLatticeError, EXIT_TOLERANCE),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as "-1.5+0i" is an argument, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with decimal literals ('2+0i', '-1.5-2i', '3', '2i', 'inf')."""
    text = text.strip()
    try:
        return complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError as e:
        raise SchemaError(f"bad complex literal {text!r}") from e


def parse_point(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(p) for p in text.split(","))


def parse_reals(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as e:
        raise SchemaError(f"bad number list {text!r}") from e


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise SchemaError(f"bad integer list {text!r}") from e


def parse_window(text: str) -> Box:
    """'0:12,-3:3' -> Box((0,-3),(12,3))."""
    lo, hi = [], []
    for part in text.split(","):
        try:
            a, b = part.split(":")
            lo.append(int(a))
            hi.append(int(b))
        except ValueError as e:
            raise SchemaError(f"bad window component {part!r}") from e
    return Box(tuple(lo), tuple(hi))


def _integer(text: str, least: int = 1) -> int:
    try:
        v = int(text)
    except ValueError:
        v = least - 1
    if v < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
    return v


def _radii(text: str) -> tuple[float, ...]:
    try:
        radii = parse_reals(text)
    except SchemaError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    if not all(0.0 < r < math.inf for r in radii):
        raise argparse.ArgumentTypeError(f"radii must be finite and > 0, got {text!r}")
    return radii


def _window(text: str) -> Box:
    try:
        return parse_window(text)
    except (SchemaError, ValueError) as e:  # Box rejects lo > hi
        raise argparse.ArgumentTypeError(str(e)) from e


def _nonnegative_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not 0.0 <= v < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return v


def fmt_complex(v: complex) -> str:
    v = complex(v)
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.17g}{sign}{abs(v.imag):.17g}i"


def _digest(path: str) -> str:
    with open_path(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_report(path, payload):
    if path:
        with open_path(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")


def _rational_evaluator(doc: dict) -> TransformEvaluator:
    try:
        n = int(doc["n"])
        num = [(tuple(t["j"]), complex(*t["c"])) for t in doc["numerator"]]
        den = [(tuple(t["j"]), complex(*t["c"])) for t in doc["denominator"]]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad rational document: {e}") from e

    def poly(terms, z):  # elementwise, so z may be a node mesh
        acc = 0.0 + 0j
        for j, c in terms:
            w = c
            for zi, ji in zip(z, j):
                w = w * zi**ji
            acc = acc + w
        return acc

    def fn(z):
        return poly(num, z) / poly(den, z)

    axes = tuple(Outside(0.0) for _ in range(n))
    if "region" in doc:
        axes = tuple(Outside(float(r)) for r in doc["region"])
    return TransformEvaluator(fn, PolyAnnulus(axes))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    if args.action == "eval":
        f = load(args.seq)
        z = parse_point(args.at)
        val, tail = eval_forward(f, z, with_tail=True)
        flat = np.atleast_1d(np.asarray(val)).reshape(-1)
        print(",".join(fmt_complex(v) for v in flat))
        _write_report(args.report, {"command": "transform eval", "tail_bound": tail,
                                    "inputs": {args.seq: _digest(args.seq)}})
        return EXIT_OK

    # invert
    if args.seq:
        f = load(args.seq)
        F = forward_evaluator(f)
        source = args.seq
    elif args.rational:
        F = _rational_evaluator(read_json(args.rational))
        source = args.rational
    elif args.fixture in ("probability", "binomial"):
        F = getattr(fixtures, f"{args.fixture}_evaluator")()
        source = f"fixture:{args.fixture}"
    else:
        raise SchemaError("invert needs --seq, --rational, or a known --fixture")
    if args.radii:
        radii = args.radii
    elif F.sequence_envelope is not None:
        radii = propose_radii(F.region)
    else:
        raise SchemaError("no --radii given and no envelope to propose from")
    grid = parse_ints(args.grid) if args.grid else None
    res = invert_contour(F, radii, args.window, grid=grid)
    save(res.table, args.out)
    _write_report(
        args.report,
        {
            "command": "transform invert",
            "source": source,
            "radii": list(radii),
            "grid": list(res.grid),
            "aliasing_max": None if res.aliasing is None else float(np.max(res.aliasing)),
        },
    )
    return EXIT_OK


def cmd_convolve(args) -> int:
    from .convolution import conv_axes, conv_general

    a, b = load(args.a), load(args.b)
    if args.mode == "axes":
        if not args.axes:
            raise SchemaError("axes mode needs --axes")
        out, ledger = conv_axes(
            a, b, parse_ints(args.axes), args.window, tol=args.tol, return_ledger=True
        )
    else:
        # faltung / weyl / general differ only in the declared domains, which
        # travel with the tables themselves
        out, ledger = conv_general(a, b, args.window, tol=args.tol, return_ledger=True)
    save(out, args.out)
    _write_report(
        args.report,
        {
            "command": f"convolve {args.mode}",
            "inputs": {args.a: _digest(args.a), args.b: _digest(args.b)},
            "tail_ledger_max": None if ledger is None else float(np.max(ledger)),
        },
    )
    return EXIT_OK


def cmd_fractional(args) -> int:
    if args.action == "cesaro":
        table = cesaro(args.alpha, args.len - 1)
        save(table, args.out)
        _write_report(args.report, {"command": "fractional cesaro", "alpha": args.alpha})
        return EXIT_OK
    # weyl
    f = load(args.seq)
    m = args.m if args.m is not None else math.ceil(args.alpha)
    if not args.alpha <= m <= 1029:  # the kernel is c^(m - alpha); C(m, m / 2) < 2^1024
        raise DimensionMismatch(f"difference order {m} outside alpha..1029 for alpha {args.alpha}")
    kernel = cesaro(m - args.alpha, args.kernel_len)
    out = weyl_am(kernel, m, f, args.window, enforce=not args.no_enforce)
    save(out, args.out)
    _write_report(
        args.report,
        {"command": "fractional weyl", "alpha": args.alpha, "m": m},
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    prob, f = problems.problem_from_doc(read_json(args.problem))
    radii = args.radii
    kernel_window = args.kernel_window
    check_window = args.check_window
    # u must cover the check window padded by the problem's largest shift;
    # convolution-type problems additionally need u from the start of its
    # support (the kernel has memory over the whole past)
    pad = prob.max_shift()
    lo = [a - pad for a in check_window.lo]
    hi = [b + pad for b in check_window.hi]
    if prob.terms:
        start = [kw + fl for kw, fl in zip(kernel_window.lo, f.support.lo)]
        lo = [min(a, s) for a, s in zip(lo, start)]
    out_window = Box(tuple(lo), tuple(hi))
    result = solve(prob, f, radii, kernel_window, out_window,
                   orthant_variant=args.orthant)
    save(result.u, args.out)
    rep = residual(prob, result.u, f, check_window)
    payload = {
        "command": "solve",
        "inputs": {args.problem: _digest(args.problem)},
        "residual": rep["max_residual"],
        "error_ledger": result.ledger,
        "min_rcond": result.kernel.min_rcond,
        "tolerance": args.tol,
    }
    _write_report(args.report, payload)
    print(f"residual {rep['max_residual']:.6e} (ledger {result.ledger:.6e})")
    return EXIT_OK if rep["max_residual"] <= args.tol else EXIT_TOLERANCE


def cmd_probe(args) -> int:
    prob, _ = problems.problem_from_doc(read_json(args.problem))
    radii = args.radii
    rng = np.random.default_rng(args.seed)
    samples = []
    for _ in range(args.samples):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(radii))
        samples.append(tuple(r * np.exp(1j * p) for r, p in zip(radii, phases)))
    report = uniqueness_probe(prob, samples, threshold=args.threshold)
    print(report["verdict"], f"(min sigma {report['min_sigma']:.6e})")
    if "roots" in report:  # as [re, im] pairs, the form of complex numbers in the JSON files
        report["roots"] = [[r.real, r.imag] for r in report["roots"]]
    _write_report(args.report, {"command": "probe-uniqueness", **report})
    return EXIT_OK


def _verdict(label: str, worst: float, tol: float, table, out) -> int:
    """Save the fixture's table if asked, print its PASS/FAIL line, exit 0 or 2."""
    if out:
        save(table, out)
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} {label} {worst:.3e}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_fixtures(args) -> int:
    name, K = args.name, args.window
    if name in ("probability", "binomial"):  # contour inversion against the exact table
        if name == "probability":  # absolute deviation, on the triangle k2 <= k1 of the law
            F, r, N, what = fixtures.probability_evaluator(args.p, args.q), 2.0, 64, "abs"
            exact = fixtures.probability_table(args.p, args.q, K)
            scale = np.where(np.tri(K + 1, dtype=bool), 1.0, np.inf)
        else:
            F, r, N, what = fixtures.binomial_evaluator(args.a_coef, args.b_coef), 1.0, 96, "rel"
            exact = fixtures.binomial_table(args.a_coef, args.b_coef, K)
            scale = np.abs(exact.values)
        got = invert_contour(F, (r, r), exact.support, grid=(N, N)).table.values
        dev = np.max(np.abs(got - exact.values) / scale)
        return _verdict(f"{name} max {what} dev", dev, 1e-9, exact, args.out)
    if name == "diagonal":
        f = fixtures.diagonal_table(2.0, K)
        worst = 0.0
        for t in range(10):
            z = (2.2 + 0.1 * t, 1.3 + 0.05 * t)
            ref = fixtures.diagonal_closed_form(2.0, z)
            dev = abs(eval_forward(f, z) - ref) / abs(ref)
            worst = max(worst, max(dev - fixtures.diagonal_tail(2.0, K, z) / abs(ref), 0.0))
        return _verdict("diagonal max rel dev beyond tail", worst, 1e-10, f, args.out)
    if name in ("geometric", "gaussian"):
        table = (fixtures.geometric_table(K=K) if name == "geometric"
                 else fixtures.gaussian_table(2, K))
        save(table, args.out or f"{name}.json")
        print(f"PASS {name} table written")
        return EXIT_OK
    raise SchemaError(f"unknown fixture {name!r}; known: {sorted(fixtures.FIXTURES)}")


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="zlattice", description=__doc__)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; computation is sequential",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="forward evaluation / contour inversion")
    ts = t.add_subparsers(dest="action", required=True)
    te = ts.add_parser("eval")
    te.add_argument("--seq", required=True)
    te.add_argument("--at", required=True, help='point as "a+bi,c+di"')
    te.add_argument("--report")
    ti = ts.add_parser("invert")
    ti.add_argument("--seq")
    ti.add_argument("--rational")
    ti.add_argument("--fixture")
    ti.add_argument("--radii", type=_radii)
    ti.add_argument("--window", type=_window, required=True, help='box as "lo:hi,lo:hi"')
    ti.add_argument("--grid")
    ti.add_argument("--out", required=True)
    ti.add_argument("--report")
    t.set_defaults(fn=cmd_transform)

    c = sub.add_parser("convolve")
    c.add_argument("--mode", choices=["faltung", "weyl", "general", "axes"], default="general")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--axes")
    c.add_argument("--window", type=_window, required=True)
    c.add_argument("--tol", type=float, default=1e-12)
    c.add_argument("--out", required=True)
    c.add_argument("--report")
    c.set_defaults(fn=cmd_convolve)

    fr = sub.add_parser("fractional")
    fs = fr.add_subparsers(dest="action", required=True)
    fc = fs.add_parser("cesaro")
    fc.add_argument("--alpha", type=_nonnegative_float, required=True)
    fc.add_argument("--len", type=_integer, default=64)
    fc.add_argument("--out", required=True)
    fc.add_argument("--report")
    fw = fs.add_parser("weyl")
    fw.add_argument("--alpha", type=_nonnegative_float, required=True)
    fw.add_argument("--m", type=lambda t: _integer(t, 0))
    fw.add_argument("--seq", required=True)
    fw.add_argument("--window", type=_window, required=True)
    fw.add_argument("--kernel-len", type=lambda t: _integer(t, 0), default=256, dest="kernel_len")
    fw.add_argument("--no-enforce", action="store_true")
    fw.add_argument("--out", required=True)
    fw.add_argument("--report")
    fr.set_defaults(fn=cmd_fractional)

    s = sub.add_parser("solve")
    s.add_argument("--problem", required=True)
    s.add_argument("--radii", type=_radii, required=True)
    s.add_argument("--kernel-window", type=_window, required=True, dest="kernel_window")
    s.add_argument("--check-window", type=_window, required=True, dest="check_window")
    s.add_argument("--out", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--orthant", action="store_true",
                   help="enforce the staircase initial conditions on the data")
    s.add_argument("--report")
    s.set_defaults(fn=cmd_solve)

    u = sub.add_parser("probe-uniqueness")
    u.add_argument("--problem", required=True)
    u.add_argument("--radii", type=_radii, required=True)
    u.add_argument("--samples", type=lambda t: _integer(t, 0), default=32)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("--threshold", type=float, default=1e-10)
    u.add_argument("--report")
    u.set_defaults(fn=cmd_probe)

    fx = sub.add_parser("fixtures")
    fx.add_argument("name")
    fx.add_argument("--p", type=float, default=0.3)
    fx.add_argument("--q", type=float, default=0.7)
    fx.add_argument("--a-coef", type=float, default=0.3, dest="a_coef")
    fx.add_argument("--b-coef", type=float, default=0.4, dest="b_coef")
    fx.add_argument("--window", type=int, default=12)
    fx.add_argument("--out")
    fx.set_defaults(fn=cmd_fixtures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ZLatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
