import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zlattice.cli import main, parse_complex, parse_point, parse_window
from zlattice.lattice import Box, Envelope, Orthant, SequenceTable, load, nonneg_orthant, save


def run(args):
    return main(args)


def test_parse_complex_forms():
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("-1.5-2i") == complex(-1.5, -2.0)
    assert parse_complex("3") == 3.0
    assert parse_complex("2i") == 2j
    assert parse_complex("inf") == math.inf and parse_complex("-1+infi") == complex(-1, math.inf)
    assert parse_point("2+0i,1-1i") == (2.0, complex(1, -1))


def test_parse_window_negative():
    w = parse_window("-10:10,0:3")
    assert w == Box((-10, 0), (10, 3))


def test_transform_eval(tmp_path, capsys):
    f = SequenceTable.delta(1)
    path = tmp_path / "f.json"
    save(f, path)
    assert run(["transform", "eval", "--seq", str(path), "--at", "2+0i"]) == 0
    assert capsys.readouterr().out.strip() == "1+0i"


def test_transform_invert_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), rng.normal(size=6)
    )
    src = tmp_path / "f.json"
    out = tmp_path / "g.json"
    save(f, src)
    code = run([
        "transform", "invert", "--seq", str(src), "--radii", "1.0",
        "--window", "0:5", "--out", str(out),
    ])
    assert code == 0
    g = load(out)
    assert np.max(np.abs(g.values - f.values)) < 1e-10


def test_transform_invert_rational_2d(tmp_path):
    # z1 z2 / (z1 z2 - 1/4) = sum_k 4^-k (z1 z2)^-k: 4^-k on the diagonal
    doc = {
        "n": 2,
        "numerator": [{"j": [1, 1], "c": [1, 0]}],
        "denominator": [{"j": [1, 1], "c": [1, 0]}, {"j": [0, 0], "c": [-0.25, 0]}],
    }
    src = tmp_path / "r.json"
    out = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    code = run([
        "transform", "invert", "--rational", str(src), "--radii", "1,1",
        "--window", "0:3,0:3", "--out", str(out),
    ])
    assert code == 0
    assert np.max(np.abs(load(out).values - np.diag(0.25 ** np.arange(4)))) < 1e-12


def test_invert_report_has_ledger(tmp_path):
    from zlattice.fixtures import geometric_table

    src = tmp_path / "f.json"
    out = tmp_path / "g.json"
    rep = tmp_path / "r.json"
    save(geometric_table(0.5, 20), src)
    code = run([
        "transform", "invert", "--seq", str(src), "--radii", "1.0",
        "--window", "0:8", "--out", str(out), "--report", str(rep),
    ])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["aliasing_max"] is not None and doc["aliasing_max"] < 1e-8


def test_invert_far_window_reports_the_wrap_around_in_its_ledger(tmp_path):
    # 0.5^k on N0, window 100:104 on the default grid of 24: the value written
    # at k = 100 is about f(4) = 0.0625, and the ledger says so
    f = SequenceTable(
        nonneg_orthant(1), Box((0,), (120,)), 0.5 ** np.arange(121.0), envelope=Envelope(1.0, (0.5,))
    )
    src, out, rep = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "r.json"
    save(f, src)
    code = run([
        "transform", "invert", "--seq", str(src), "--radii", "1", "--window", "100:104",
        "--out", str(out), "--report", str(rep),
    ])
    assert code == 0
    assert abs(load(out).values[0] - 0.5**100) == pytest.approx(0.0625)
    assert json.loads(rep.read_text())["aliasing_max"] >= 0.0625


def test_invert_anticausal_table_proposes_radii_inside_its_region(tmp_path):
    # 2^k on -N0 converges for |z| < 2: the proposed radius is 2 / 1.5
    k = np.arange(-40, 1.0)
    f = SequenceTable(Orthant((-1,)), Box((-40,), (0,)), 2.0**k, envelope=Envelope(1.0, (2.0,)))
    src, out, rep = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "r.json"
    save(f, src)
    code = run([
        "transform", "invert", "--seq", str(src), "--window", "-5:0",
        "--out", str(out), "--report", str(rep),
    ])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["radii"] == [2.0 / 1.5]
    err = np.abs(load(out).values - 2.0 ** np.arange(-5, 1.0))
    assert np.all(err <= doc["aliasing_max"]) and doc["aliasing_max"] < 1e-4


def test_convolve_cli(tmp_path):
    from zlattice.fractional import cesaro

    a = tmp_path / "a.json"
    out = tmp_path / "c.json"
    save(cesaro(1.0, 8), a)
    code = run([
        "convolve", "--mode", "faltung", "--a", str(a), "--b", str(a),
        "--window", "0:7", "--out", str(out),
    ])
    assert code == 0
    c = load(out)
    assert np.allclose(c.values.real, np.arange(1, 9))


@pytest.mark.parametrize("k2", ["-60", "-1100"])
def test_convolve_axes_far_window_exits_2(tmp_path, k2):
    # 0.5^-1100 overflows the pass-through envelope factor: the tail ledger is
    # inf, a tolerance failure like the divergent tail at -60
    from zlattice.fractional import cesaro
    from zlattice.lattice import Envelope, FullLattice

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save(cesaro(0.5, 5), a)
    save(SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((0.5, 0.5), (0.5, 0.5))),
    ), b)
    code = run([
        "convolve", "--mode", "axes", "--axes", "1", "--a", str(a), "--b", str(b),
        "--window", f"0:2,{k2}:{k2}", "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2


def test_convolve_axes_far_window_along_convolved_axis_exits_0_or_2(tmp_path, capsys):
    # 0.3^-1100 overflows along the convolved axis itself
    from zlattice.lattice import Envelope, FullLattice

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save(SequenceTable(
        nonneg_orthant(1), Box((0,), (5,)), 0.3 ** np.arange(6), envelope=Envelope(1.0, (0.3,)),
    ), a)
    save(SequenceTable(
        FullLattice(2), Box((0, 0), (2, 2)), np.full((3, 3), 0.1),
        envelope=Envelope(1.0, ((2.0, 0.5), (0.5, 0.5))),
    ), b)
    code = run([
        "convolve", "--mode", "axes", "--axes", "1", "--a", str(a), "--b", str(b),
        "--window", "-1100:-1098,0:0", "--out", str(tmp_path / "c.json"),
    ])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_transform_eval_accepts_point_with_leading_minus(tmp_path, capsys):
    from zlattice.fixtures import geometric_table

    path = tmp_path / "g.json"
    save(geometric_table(0.5, 8), path)
    outs = []
    for args in (["--at", "-1.5+0i"], ["--at=-1.5+0i"]):
        assert run(["transform", "eval", "--seq", str(path), *args]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


@pytest.mark.parametrize("at", ["1e308", "1e200"])
def test_transform_eval_where_the_powers_leave_the_float_range(tmp_path, capsys, at):
    """0.5^k on 0:8: z^-k underflows to 0 for k >= 2, and 1e-308 < 2^-1022 adds nothing to 1."""
    from zlattice.fixtures import geometric_table

    save(geometric_table(0.5, 8), tmp_path / "g.json")
    assert run(["transform", "eval", "--seq", str(tmp_path / "g.json"), "--at", at]) == 0
    assert capsys.readouterr().out.strip() == "1+0i"


def test_fractional_cesaro_cli(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["fractional", "cesaro", "--alpha", "1", "--len", "5", "--out", str(out)]) == 0
    c = load(out)
    assert np.allclose(c.values.real, 1.0)


def test_fractional_weyl_cli(tmp_path, capsys):
    from zlattice.fractional import cesaro, weyl_am

    f = SequenceTable(nonneg_orthant(1), Box((0,), (12,)), 0.5 ** np.arange(13))
    save(f, tmp_path / "f.json")
    out, rep = tmp_path / "d.json", tmp_path / "r.json"
    code = run(["fractional", "weyl", "--alpha", "1.5", "--seq", str(tmp_path / "f.json"),
                "--window", "0:8", "--kernel-len", "16", "--out", str(out), "--report", str(rep)])
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    want = weyl_am(cesaro(0.5, 16), 2, f, Box((0,), (8,)))
    assert np.array_equal(load(out).values, want.values)
    assert json.loads(rep.read_text()) == {"command": "fractional weyl", "alpha": 1.5, "m": 2}


def test_solve_cli_and_exit_codes(tmp_path, capsys):
    prob = {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [
            {"j": [1], "A": [[[1, 0]]]},
            {"j": [0], "A": [[[-0.5, 0]]]},
        ],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    p = tmp_path / "p.json"
    p.write_text(json.dumps(prob))
    out = tmp_path / "u.json"
    code = run([
        "solve", "--problem", str(p), "--radii", "1.0",
        "--kernel-window", "0:40", "--check-window", "1:28", "--out", str(out),
    ])
    assert code == 0
    u = load(out)
    assert abs(u.at((5,)) - 0.5**4) < 1e-10

    # singular symbol on the contour -> exit 3
    prob["terms"][1]["A"] = [[[-1, 0]]]
    p.write_text(json.dumps(prob))
    code = run([
        "solve", "--problem", str(p), "--radii", "1.0",
        "--kernel-window", "0:40", "--check-window", "1:28", "--out", str(out),
    ])
    assert code == 3


def test_solve_report_is_byte_identical_across_runs(tmp_path):
    prob = {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [
            {"j": [1], "A": [[[1, 0]]]},
            {"j": [0], "A": [[[-0.5, 0]]]},
        ],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    p = tmp_path / "p.json"
    p.write_text(json.dumps(prob))
    reports = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        code = run([
            "solve", "--problem", str(p), "--radii", "1.0",
            "--kernel-window", "0:40", "--check-window", "1:28",
            "--out", str(tmp_path / "u.json"), "--report", str(rep),
        ])
        assert code == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "u.json"
    code = run([
        "solve", "--problem", str(bad), "--radii", "1.0",
        "--kernel-window", "0:4", "--check-window", "0:2", "--out", str(out),
    ])
    assert code == 4


def test_usage_error_exit_code():
    assert run(["transform"]) == 1
    assert run(["no-such-command"]) == 1


def test_probe_uniqueness_cli(tmp_path, capsys):
    prob = {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [
            {"j": [1], "A": [[[1, 0]]]},
            {"j": [0], "A": [[[-0.5, 0]]]},
        ],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    p = tmp_path / "p.json"
    p.write_text(json.dumps(prob))
    assert run(["probe-uniqueness", "--problem", str(p), "--radii", "1.0"]) == 0
    assert "injectivity witnessed" in capsys.readouterr().out


def test_probe_uniqueness_cli_does_not_witness_a_root_on_the_circle(tmp_path, capsys):
    # u(k + 1) - u(k) = f: the root 1 of z - 1 lies on |z| = 1, where solve exits 3
    prob = {"kind": "pencil", "n": 1, "m": 1, "C": [[[1, 0]]], "data": {"generator": "delta"},
            "terms": [{"j": [1], "A": [[[1, 0]]]}, {"j": [0], "A": [[[-1, 0]]]}]}
    p, rep = tmp_path / "p.json", tmp_path / "r.json"
    p.write_text(json.dumps(prob))
    assert run(["probe-uniqueness", "--problem", str(p), "--radii", "1.0", "--report", str(rep)]) == 0
    assert "not witnessed" in capsys.readouterr().out
    assert json.loads(rep.read_text())["roots"] == [[1.0, 0.0]]
    assert run(["solve", "--problem", str(p), "--radii", "1.0", "--kernel-window", "0:8",
                "--check-window", "1:4", "--out", str(tmp_path / "u.json")]) == 3


def test_fixture_commands(capsys):
    assert run(["fixtures", "probability", "--window", "8"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(["fixtures", "diagonal", "--window", "30"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name, window, line", [
    ("binomial", "6", "PASS binomial max rel dev"),
    ("geometric", "5", "PASS geometric table written"),
    ("gaussian", "3", "PASS gaussian table written"),
])
def test_fixture_commands_write_their_tables(tmp_path, monkeypatch, capsys, name, window, line):
    from zlattice import fixtures

    monkeypatch.chdir(tmp_path)  # the table writers default to a file in the working directory
    out = [] if name != "binomial" else ["--out", "b.json"]
    assert run(["fixtures", name, "--window", window, *out]) == 0
    assert capsys.readouterr().out.startswith(line)
    K = int(window)
    want = {"binomial": fixtures.binomial_table(K=K), "geometric": fixtures.geometric_table(K=K),
            "gaussian": fixtures.gaussian_table(2, K)}[name]
    got = load(tmp_path / ("b.json" if name == "binomial" else f"{name}.json"))
    assert got.support == want.support and np.array_equal(got.values, want.values)


@pytest.mark.parametrize("name, radii, grid", [("probability", "2,2", "64,64"),
                                              ("binomial", "1,1", "96,96")])
def test_transform_invert_of_a_fixture_matches_its_table(tmp_path, name, radii, grid):
    # the radii and grids of the fixtures command
    from zlattice import fixtures

    out, rep = tmp_path / "g.json", tmp_path / "r.json"
    code = run(["transform", "invert", "--fixture", name, "--radii", radii, "--window", "0:5,0:5",
                "--grid", grid, "--out", str(out), "--report", str(rep)])
    assert code == 0 and json.loads(rep.read_text())["source"] == f"fixture:{name}"
    exact = getattr(fixtures, f"{name}_table")(K=5)
    assert np.max(np.abs(load(out).values - exact.values)) < 1e-9


def test_deterministic_output_across_thread_flags(tmp_path):
    rng = np.random.default_rng(1)
    f = SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 3)), rng.normal(size=(4, 4)))
    src = tmp_path / "f.json"
    save(f, src)
    outs = []
    for threads, name in [(1, "a.json"), (8, "b.json")]:
        out = tmp_path / name
        code = run([
            "--threads", str(threads),
            "transform", "invert", "--seq", str(src), "--radii", "1.0,1.0",
            "--window", "0:3,0:3", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_default_reads_no_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("ZLATTICE_THREADS", "abc")
    assert run(["fractional", "cesaro", "--alpha", "0.5", "--out", str(tmp_path / "c.json")]) == 0


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zlattice.cli", "fixtures", "diagonal", "--window", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def _pencil_doc():
    """u(k+1) - 0.5 u(k) = delta(k), scalar."""
    return {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [{"j": [1], "A": [[[1, 0]]]}, {"j": [0], "A": [[[-0.5, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }


def _vector_data(size):
    """The delta on N0 as a vector document of the given size, all ones at 0."""
    from zlattice.lattice import emit

    return emit(SequenceTable(nonneg_orthant(1), Box((0,), (0,)), np.ones((1, size)), "vector", size))


def _vector_pencil_doc():
    """u(k+1) - 0.5 u(k) = delta(k) (1, 1) in C^2."""
    eye, half = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[-0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
    return {
        "kind": "pencil", "n": 1, "m": 2,
        "terms": [{"j": [1], "A": eye}, {"j": [0], "A": half}],
        "C": eye,
        "data": _vector_data(2),
    }


def test_solve_cli_writes_scalar_u_for_scalar_problem(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(_pencil_doc()))
    out = tmp_path / "u.json"
    code = run([
        "solve", "--problem", str(p), "--radii", "1.0",
        "--kernel-window", "0:40", "--check-window", "1:28", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value_kind"] == "scalar"
    u = load(out)
    assert u.value_kind == "scalar" and u.values.shape == u.support.shape
    assert abs(u.at((5,)) - 0.5**4) < 1e-10


def _weyl_doc(order):
    return {
        "kind": "weyl_1d", "m": 1,
        "terms": [{"kernel": {"cesaro": {"alpha": 0.5, "len": 16}}, "order": order,
                   "A": [[[1, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }


def _solvable_docs():
    """One document per non-pencil problem kind, with its radii and windows."""
    volterra = {
        "kind": "volterra_zn", "n": 1, "m": 1, "B": [[[1, 0]]],
        "terms": [{"kernel": {"cesaro": {"alpha": 0.5, "len": 32}}, "shift": [0],
                   "A": [[[0.3, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    # the alpha = 0 Cesaro kernel is the delta: u(k) + 0.3 (c^0.5 *_2 u)(k) = delta(k)
    mixed = {
        "kind": "mixed_axes", "n": 2, "m": 1,
        "terms": [{"kernel": {"cesaro": {"alpha": 0.0, "len": 0}}, "axes": [1], "A": [[[1, 0]]]},
                  {"kernel": {"cesaro": {"alpha": 0.5, "len": 16}}, "axes": [2],
                   "A": [[[0.3, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    return {
        "volterra_zn": (volterra, "1.3", "0:40", "0:20"),
        "weyl_1d": (_weyl_doc(1), "1.3", "0:40", "0:20"),
        "mixed_axes": (mixed, "1.2,1.2", "0:24,0:24", "0:8,0:8"),
        "mixed_axes vector": (_vector_axes_doc(), "1.2,1.2", "0:24,0:24", "0:8,0:8"),
    }


def _vector_axes_doc():
    """A mixed_axes problem in C^2 with a vector kernel on axis 2; its symbol refuses
    the series certificate, so the kernel is inverted on the contour."""
    from zlattice.lattice import emit

    k = np.arange(4)
    kernel = SequenceTable(nonneg_orthant(1), Box((0,), (3,)),
                           np.stack([0.5**k, 0.25 * 0.5**k], -1), "vector", 2)
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    return {
        "kind": "mixed_axes", "n": 2, "m": 2,
        "terms": [{"kernel": {"cesaro": {"alpha": 0.0, "len": 0}}, "axes": [1], "A": eye},
                  {"kernel": emit(kernel), "axes": [2], "A": [[[0.3, 0], [0.1, 0]], [[0, 0], [0.2, 0]]]}],
        "C": eye,
        "data": {"generator": "delta"},
    }


@pytest.mark.parametrize("kind", list(_solvable_docs()))
def test_solve_cli_solves_every_problem_kind(tmp_path, kind):
    doc, radii, kernel_window, check_window = _solvable_docs()[kind]
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    rep = tmp_path / "r.json"
    code = run([
        "solve", "--problem", str(p), "--radii", radii, "--kernel-window", kernel_window,
        "--check-window", check_window, "--out", str(tmp_path / "u.json"), "--report", str(rep),
    ])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["residual"] <= report["error_ledger"]


def _axes_out_of_order_doc():
    """A mixed_axes problem whose 2-D kernel lists its axes as [2, 1]."""
    from zlattice.lattice import emit

    k1, k2 = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
    kernel = SequenceTable(nonneg_orthant(2), Box((0, 0), (2, 3)), 0.5 ** (k1 + 2 * k2))
    return {
        "kind": "mixed_axes", "n": 2, "m": 1,
        "terms": [{"kernel": {"cesaro": {"alpha": 0.0, "len": 0}}, "axes": [1], "A": [[[1, 0]]]},
                  {"kernel": emit(kernel), "axes": [2, 1], "A": [[[0.3, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }


def test_solve_cli_takes_a_kernel_with_axes_listed_out_of_order(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(_axes_out_of_order_doc()))
    code = run([
        "solve", "--problem", str(p), "--radii", "1.2,1.2", "--kernel-window", "0:16,0:16",
        "--check-window", "0:6,0:6", "--out", str(tmp_path / "u.json"),
    ])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def _malformed_docs():
    dup = _pencil_doc()
    dup["terms"][1]["j"] = [1]
    empty = _pencil_doc()
    empty["terms"] = []
    long_j = _pencil_doc()
    long_j["terms"][0]["j"] = [1, 0]
    mixed = {
        "kind": "mixed_axes", "n": 2, "m": 1,
        "terms": [{"kernel": {"cesaro": {"alpha": 0.5, "len": 4}}, "axes": [1, 2],
                   "A": [[[1, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    return {
        "top-level array": [_pencil_doc()],
        "n not an integer": {**_pencil_doc(), "n": "two"},
        "weyl order not an integer": _weyl_doc("x"),
        "duplicate pencil index": dup,
        "empty pencil": empty,
        "pencil index of wrong length": long_j,
        "axes not matching the kernel": mixed,
    }


@pytest.mark.parametrize("name", list(_malformed_docs()))
def test_malformed_problem_document_exits_4(tmp_path, capsys, name):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(_malformed_docs()[name]))
    code = run([
        "solve", "--problem", str(p), "--radii", "1.0",
        "--kernel-window", "0:8", "--check-window", "1:4", "--out", str(tmp_path / "u.json"),
    ])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and "Traceback" not in err


def _sequence_doc():
    from zlattice.lattice import emit

    return emit(SequenceTable(nonneg_orthant(1), Box((0,), (2,)), np.ones(3)))


@pytest.mark.parametrize(
    "doc",
    [[_sequence_doc()], {**_sequence_doc(), "n": "two"}],
    ids=["top-level array", "n not an integer"],
)
def test_malformed_sequence_document_exits_4(tmp_path, capsys, doc):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    code = run(["transform", "eval", "--seq", str(p), "--at", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("args", [["--len", "0"], ["--alpha", "-1"]])
def test_bad_cesaro_arguments_exit_1_at_parse_time(tmp_path, capsys, args):
    out = tmp_path / "c.json"
    code = run(["fractional", "cesaro", "--alpha", "0.5", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: argument" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["transform", "invert", "--radii=-1", "--window", "0:3"],
        ["transform", "invert", "--radii", "1,inf", "--window", "0:3"],
        ["transform", "invert", "--radii", "1.0", "--window", "5:1"],
        ["transform", "invert", "--radii", "1.0", "--window", "0:x"],
        ["solve", "--problem", "p.json", "--radii", "nan", "--kernel-window", "0:4",
         "--check-window", "0:2"],
        ["solve", "--problem", "p.json", "--radii", "1.0", "--kernel-window", "4:0",
         "--check-window", "0:2"],
    ],
    ids=["negative radius", "infinite radius", "window lo > hi", "bad window",
         "nan radius", "kernel window lo > hi"],
)
def test_bad_radii_and_windows_exit_1_at_parse_time(tmp_path, capsys, args):
    from zlattice.fixtures import geometric_table

    save(geometric_table(0.5, 8), tmp_path / "g.json")
    (tmp_path / "p.json").write_text(json.dumps(_pencil_doc()))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "o.json"
    seq = ["--seq", str(tmp_path / "g.json")] if args[0] == "transform" else []
    code = run([*args, *seq, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: argument" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("at", ["1.5,2", "0.2"], ids=["dimension mismatch", "outside region"])
def test_point_the_sequence_does_not_admit_exits_1(tmp_path, capsys, at):
    from zlattice.fixtures import geometric_table

    path = tmp_path / "g.json"
    save(geometric_table(0.5, 8), path)
    code = run(["transform", "eval", "--seq", str(path), "--at", at])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_singular_symbol_message_prints_plain_complex_numbers(tmp_path, capsys):
    doc = _pencil_doc()
    doc["terms"] = [{"j": [1], "A": [[[1, 0]]]}, {"j": [0], "A": [[[-1, 0]]]}]
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    code = run([
        "solve", "--problem", str(p), "--radii", "1.0",
        "--kernel-window", "0:8", "--check-window", "1:4", "--out", str(tmp_path / "u.json"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "at node ((1+0j),)" in err and "np." not in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Fuzzing: mutated documents and arguments exit with a documented code
# ---------------------------------------------------------------------------

DOC, OUT = "<doc>", "<out>"


def _fuzz_seeds():
    """(arguments, document) pairs that run and exit 0 as they are."""
    from zlattice.fixtures import geometric_table
    from zlattice.lattice import emit

    seq = emit(geometric_table(0.5, 8))
    k = np.add.outer(np.arange(4), np.arange(4))
    seq2 = emit(SequenceTable(nonneg_orthant(2), Box((0, 0), (3, 3)), 0.5**k,
                              envelope=Envelope(1.0, (0.5, 0.5))))
    solve = ["solve", "--problem", DOC, "--radii"]
    return [
        (["transform", "eval", "--seq", DOC, "--at", "2+0i"], seq),
        (["transform", "invert", "--seq", DOC, "--radii", "1,1", "--window", "0:3,0:3", "--out", OUT], seq2),
        (["convolve", "--a", DOC, "--b", DOC, "--window", "0:6", "--out", OUT], seq),
        (["fractional", "weyl", "--alpha", "0.5", "--seq", DOC, "--window", "0:6", "--kernel-len", "16",
          "--out", OUT], seq),
        ([*solve, "1.0", "--kernel-window", "0:16", "--check-window", "1:8", "--out", OUT], _pencil_doc()),
        ([*solve, "1.3", "--kernel-window", "0:24", "--check-window", "0:10", "--out", OUT], _weyl_doc(1)),
        ([*solve, "1.2,1.2", "--kernel-window", "0:12,0:12", "--check-window", "0:4,0:4", "--out", OUT],
         _axes_out_of_order_doc()),
        (["probe-uniqueness", "--problem", DOC, "--radii", "1.0", "--samples", "4"], _pencil_doc()),
        (["convolve", "--mode", "axes", "--axes", "1", "--a", DOC, "--b", DOC, "--window", "0:6",
          "--out", OUT], seq),
        ([*solve, "1.0", "--kernel-window", "0:8", "--check-window", "1:4", "--out", OUT],
         _vector_pencil_doc()),
    ]


# small values only, so that no mutation asks for a large table; no "/" in an
# argument, so that an output path stays in the test's directory
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.text(max_size=3), st.just([]), st.just({}),
    st.sampled_from([0.0, -1.0, 0.5, 2.5, 1e308, -1e-300, math.nan, math.inf]),
)
_ARGUMENTS = st.one_of(st.text(max_size=4).filter(lambda t: "/" not in t), st.sampled_from([
    "0", "-1", "3", "0.5", "nan", "inf", "1e-300", "1e308", "0:3", "3:0", "-2:2", "0:2,0:2", "1,1",
    "2+0i", "0+0i", "1+1i,2", "--out", "--radii",
]))


def _scaled(node, factor):
    """The node with every number in it multiplied by ``factor``."""
    if isinstance(node, list):
        return [_scaled(x, factor) for x in node]
    return node * factor if type(node) in (int, float) else node


def _mutate(draw, doc):
    """The document with one node replaced, deleted or wrapped in a list, its
    values and matrices scaled toward the end of the float range, or its
    vector data resized to a drawn m."""
    data = doc.get("data") if isinstance(doc, dict) else None
    if isinstance(data, dict) and data.get("value_kind") == "vector" and draw(st.booleans()):
        data.update(_vector_data(draw(st.integers(1, 3))))
        return doc
    nodes = [(None, None)]  # (container, key) of every node; the root first
    stack = [doc]
    while stack:
        c = stack.pop()
        for key in (range(len(c)) if isinstance(c, list) else c if isinstance(c, dict) else ()):
            nodes.append((c, key))
            stack.append(c[key])
    op = draw(st.sampled_from(("replace", "delete", "wrap", "scale")))
    if op == "scale":  # values, matrix entries and envelope constants
        factor = draw(st.sampled_from([1e100, 1e200, 1e300, -1e300]))
        for c, key in nodes[1:]:
            if key in ("values", "A", "A0", "B", "C", "M"):
                c[key] = _scaled(c[key], factor)
        return doc
    c, key = draw(st.sampled_from(nodes))
    if c is None:
        return draw(_LEAVES) if op == "replace" else [doc]
    if op == "delete":
        del c[key]
    else:
        c[key] = draw(_LEAVES) if op == "replace" else [c[key]]
    return doc


@given(st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_documents_and_arguments_exit_with_a_documented_code(data):
    argv, doc = data.draw(st.sampled_from(_fuzz_seeds()))
    doc, argv = json.loads(json.dumps(doc)), list(argv)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data.draw, doc)
    for _ in range(data.draw(st.sampled_from((0, 0, 0, 1, 2)))):  # mostly the seed's arguments
        argv[data.draw(st.integers(0, len(argv) - 1))] = data.draw(_ARGUMENTS)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        argv = [path if a == DOC else os.path.join(d, "out.json") if a == OUT else a for a in argv]
        codes, cwd = [], os.getcwd()
        os.chdir(d)  # a mutated argument may name a relative output path
        try:
            for _ in range(2):  # the same input twice
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    codes.append(main(argv))
                assert "Traceback" not in err.getvalue()
        finally:
            os.chdir(cwd)
    assert codes[0] == codes[1] and 0 <= codes[0] <= 4


def _edit(doc, path, value):
    """The document with the node at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("seed, path, value, argument, code", [
    (0, ("support_lo",), [math.inf], None, 4),  # int(inf) overflows
    (0, ("envelope", "rates"), [[0.5]], None, 4),  # a rate pair of one
    (6, ("n",), False, None, 4),  # a zero-dimensional symbol
    (6, ("terms", 0, "kernel", "cesaro", "len"), -1, None, 4),  # a Cesaro kernel of no terms
    (6, ("terms", 1, "axes"), [2, 2], None, 4),  # an axis listed twice
    (5, ("C",), [[[0, 0]]], None, 0),  # C = 0: the kernel and its ledger are 0
    (0, ("n",), 1, (3, "a\x00b"), 4),  # a NUL byte in a path
    (2, ("n",), 1, (8, "o\x00"), 4),  # ... in an output path
    (4, ("n",), 1, (2, "p\x00"), 4),  # ... in a problem path
    (3, ("n",), 1, (3, "nan"), 1),  # --alpha nan
    (3, ("n",), 1, (3, "1e308"), 1),  # a difference order past the float range of C(m, j)
    (3, ("n",), 1, (9, "-1"), 1),  # --kernel-len -1
    (5, ("terms", 0, "A"), [[[1e308, 0]]], None, 0),  # the series ledger overflows: inf
    (7, ("terms", 0, "A"), [[[-1e-300, 0]]], None, 0),  # a root of 5e299: its mode overflows
    (7, ("terms", 0, "A"), [[[5e-324, 0]]], None, 0),  # a root past the float range: inf
    (7, ("terms",), [{"j": [1], "A": [[[-1e-300, 0]]]}, {"j": [0], "A": [[[1e308, 0]]]}], None,
     0),  # a root of 1e608
    (8, ("n",), 1, (4, "2,1"), 1),  # a 1-D kernel on two axes
    (8, ("n",), 1, (4, "0"), 1),  # an axis below 1
    (8, ("n",), 1, (4, "3"), 1),  # an axis past the dimension
    (8, ("n",), 1, (4, "1,1"), 1),  # an axis listed twice
    (1, ("values", 15), [1e308, 0], None, 0),  # the inverse FFT's sums pass the float range
    (9, ("data",), _vector_data(3), None, 4),  # data in C^3 for a problem in C^2
    (6, ("n",), 3, None, 1),  # a 3-D problem with 2-D radii and windows
    (9, ("n",), 1, (4, "1e-300"), 0),  # a contour at radius 1e-300: its fitted envelope was nan
    (2, ("values",), [[1e200, 0.0]] * 9, None, 2),  # a product past the float range
    (3, ("values",), [[1.5e308, 0.0], [-1.5e308, 0.0]] * 4 + [[1.5e308, 0.0]], (3, "2"),
     2),  # --alpha 2: the kernel is the delta, and the second difference passes the float range
    (0, ("n",), 1, (5, "1e308"), 0),  # z^-k past the float range: 0, with no warning
    (0, ("n",), 1, (5, "1e200"), 0),
    (0, ("n",), 1, (5, "inf"), 1),  # a non-finite point lies in no region
    (0, ("envelope",), None, (5, "1e-200"), 2),  # z^-k past the float range times a value
], ids=["support inf", "rate pair of one", "n false", "cesaro len -1", "axes repeated", "C zero",
        "NUL in a path", "NUL in an output path", "NUL in a problem path", "weyl alpha nan", "weyl alpha 1e308", "kernel-len -1",
        "weyl A 1e308", "probe root 5e299", "probe root 1e323", "probe root 1e608",
        "axes 2,1", "axes 0", "axes 3", "axes 1,1", "invert value 1e308", "data m 3",
        "n 3 against 2-D radii", "radius 1e-300", "convolve 1e200", "weyl difference 1.5e308",
        "eval at 1e308", "eval at 1e200", "eval at inf", "eval at 1e-200"])
def test_mutations_that_raised_exit_with_a_documented_code(tmp_path, capsys, seed, path, value,
                                                          argument, code):
    argv, doc = _fuzz_seeds()[seed]
    argv = list(argv)
    if argument is not None:
        argv[argument[0]] = argument[1]
    (tmp_path / "doc.json").write_text(json.dumps(_edit(doc, path, value)))
    argv = [str(tmp_path / "doc.json") if a == DOC else str(tmp_path / "o.json") if a == OUT else a
            for a in argv]
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_file_not_in_a_unicode_encoding_exits_4(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_bytes(b'{"n": "\xff"}')
    code = run(["solve", "--problem", str(p), "--radii", "1.0", "--kernel-window", "0:8",
                "--check-window", "1:4", "--out", str(tmp_path / "u.json")])
    assert code == 4 and "Traceback" not in capsys.readouterr().err


def test_a_value_error_of_the_program_is_not_an_input_error(tmp_path, monkeypatch):
    """Only the file boundary turns a ValueError into exit 4; a fault elsewhere keeps its
    traceback, so that the fuzz test above can see it."""
    from zlattice import cli
    from zlattice.fixtures import geometric_table

    def fault(*args, **kwargs):
        raise ValueError("a fault of the program")

    save(geometric_table(0.5, 8), tmp_path / "f.json")
    monkeypatch.setattr(cli, "eval_forward", fault)
    with pytest.raises(ValueError, match="a fault of the program"):
        main(["transform", "eval", "--seq", str(tmp_path / "f.json"), "--at", "2+0i"])
