"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the asserted tolerances are the ones stated with each criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from zlattice import fixtures
from zlattice.convolution import conv_general, conv_theorem_check
from zlattice.fractional import (
    cesaro,
    cesaro_values,
    weyl_transform_identity_check,
)
from zlattice.lattice import Box, FullLattice, SequenceTable, nonneg_orthant, save
from zlattice.solver import (
    OperatorPencil,
    homogeneous_mode_residual,
    pencil_roots_1d,
    residual,
    solve,
    uniqueness_probe,
)
from zlattice.ztransform import eval_forward, forward_evaluator, invert_contour


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_probability_fixture():
    t0 = time.perf_counter()
    F = fixtures.probability_evaluator(0.3, 0.7)
    res = invert_contour(F, (2.0, 2.0), Box((0, 0), (12, 12)), grid=(64, 64))
    exact = fixtures.probability_table(0.3, 0.7, 12)
    worst = max(
        abs(res.table.at(k) - exact.at(k))
        for k in exact.support.points()
        if k[1] <= k[0]
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (probability fixture)",
        worst <= 1e-9 and elapsed < 1.0,
        f"max abs dev {worst:.3e} (tol 1e-9), {elapsed:.2f}s",
    )


def test_criterion_02_binomial_fixture():
    F = fixtures.binomial_evaluator(0.3, 0.4)
    res = invert_contour(F, (1.0, 1.0), Box((0, 0), (10, 10)), grid=(96, 96))
    exact = fixtures.binomial_table(0.3, 0.4, 10)
    worst = max(
        abs(res.table.at(k) - exact.at(k)) / abs(exact.at(k))
        for k in exact.support.points()
    )
    report(
        "criterion 2 (binomial fixture)",
        worst <= 1e-9,
        f"max rel dev {worst:.3e} (tol 1e-9)",
    )


def test_criterion_03_diagonal_forward():
    a, K = 2.0, 40
    f = fixtures.diagonal_table(a, K)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        m1 = rng.uniform(1.5, 3.0)
        m2 = rng.uniform(a / m1 + 0.2, 3.0)  # enforce |z1 z2| > a
        z = (m1 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
             m2 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        ref = fixtures.diagonal_closed_form(a, z)
        tail = fixtures.diagonal_tail(a, K, z)
        dev = abs(eval_forward(f, z) - ref) / abs(ref)
        worst = max(worst, max(dev - tail / abs(ref), 0.0))
    report(
        "criterion 3 (diagonal sequence transform)",
        worst <= 1e-10,
        f"max rel dev beyond tail {worst:.3e} (tol 1e-10)",
    )


def test_criterion_04_convolution_theorem():
    rng = np.random.default_rng(1)
    worst = 0.0
    for case in range(200):
        axes_mode = case < 50
        n = int(rng.integers(1, 3))
        if axes_mode and n == 1:
            n = 2

        def table(dim, span):
            lo = tuple(int(v) for v in rng.integers(-2, 2, size=dim))
            hi = tuple(a + span for a in lo)
            shape = tuple(span + 1 for _ in range(dim))
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return SequenceTable(FullLattice(dim), Box(lo, hi), vals)

        b = table(n, int(rng.integers(1, 4)))
        pts = [
            tuple(
                rng.uniform(0.6, 1.8, size=n)
                * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
            )
            for _ in range(3)
        ]
        if axes_mode:
            a = table(1, int(rng.integers(1, 4)))
            ax = int(rng.integers(1, n + 1))
            rep = conv_theorem_check(a, b, pts, axes=(ax,))
        else:
            a = table(n, int(rng.integers(1, 4)))
            rep = conv_theorem_check(a, b, pts)
        worst = max(worst, rep["max_rel_deviation"])
    report(
        "criterion 4 (convolution theorem, 200 cases)",
        worst <= 1e-10,
        f"max rel dev {worst:.3e} (tol 1e-10)",
    )


def test_criterion_05_inversion_round_trip():
    rng = np.random.default_rng(2)
    worst = 0.0
    kinds = [("scalar", None), ("vector", 2), ("matrix", 2)]
    for case in range(100):
        n = 1 if case < 60 else (2 if case < 90 else 3)
        span = int(rng.integers(1, 5)) if n == 1 else (int(rng.integers(1, 4)) if n == 2 else 1)
        kind, m = kinds[case % 3]
        lo = tuple(int(v) for v in rng.integers(-2, 2, size=n))
        hi = tuple(a + span for a in lo)
        vshape = () if kind == "scalar" else ((m,) if kind == "vector" else (m, m))
        shape = tuple(span + 1 for _ in range(n)) + vshape
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        f = SequenceTable(FullLattice(n), Box(lo, hi), vals, kind, m)
        res = invert_contour(forward_evaluator(f), (1.0,) * n, f.support)
        worst = max(worst, float(np.max(np.abs(res.table.values - f.values))))
    report(
        "criterion 5 (inversion round-trip, 100 tables)",
        worst <= 1e-10,
        f"max abs dev {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_cesaro_semigroup():
    K = 64
    alphas = [0.0, 0.5, 1.0, 1.3, 2.0]
    worst = 0.0
    for a in alphas:
        for b in alphas:
            ca, cb = cesaro(a, K), cesaro(b, K)
            out = conv_general(ca, cb, Box((0,), (K,)), enforce=False)
            ref = cesaro_values(a + b, K)
            dev = np.max(np.abs(out.values.real - ref) / np.maximum(np.abs(ref), 1e-300))
            worst = max(worst, float(dev))
    exact = np.allclose(cesaro_values(1.0, K), 1.0) and np.allclose(
        cesaro_values(2.0, K), np.arange(1, K + 2)
    )
    report(
        "criterion 6 (Cesaro semigroup, 25 pairs)",
        worst <= 1e-12 and exact,
        f"max rel dev {worst:.3e} (tol 1e-12), closed forms exact: {exact}",
    )


def test_criterion_07_weyl_transform_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 1.9))
        m = int(rng.integers(0, 3))
        a = cesaro(gamma, 64)
        span = int(rng.integers(3, 9))
        vals = rng.normal(size=span + 1) + 1j * rng.normal(size=span + 1)
        u = SequenceTable(FullLattice(1), Box((0,), (span,)), vals)
        pts = [(float(rng.uniform(1.2, 2.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi)),)
               for _ in range(3)]
        rep = weyl_transform_identity_check(a, m, u, pts)
        worst = max(worst, rep["max_rel_deviation"])
    report(
        "criterion 7 (Weyl transform identity, 50 cases)",
        worst <= 1e-9,
        f"max rel dev {worst:.3e} (tol 1e-9)",
    )


def forward_recursion(terms, C, f, K):
    """Zero-initial-data recursion for sum_j A_j u(k+j) = C f(k), 1-D."""
    order = max(j for j, _ in terms)
    m = C.shape[0]
    A = dict(terms)
    lead = A[order]
    u = np.zeros((K + order + 1, m), dtype=complex)
    for k in range(0, K + 1):
        rhs = C @ f(k)
        for j in range(order):
            if j in A:
                rhs = rhs - A[j] @ u[k + j]
        u[k + order] = np.linalg.solve(lead, rhs)
    return u


def test_criterion_08_solver_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 5))
        order = int(rng.integers(1, 4))
        terms = [(order, np.eye(m, dtype=complex))]
        for j in range(order):
            if rng.uniform() < 0.8 or j == 0:
                # keep sum of coefficient norms below 1 so every
                # characteristic root sits inside the unit contour and the
                # contour kernel is the causal one the recursion computes
                terms.append((j, 0.05 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))))
        C = np.eye(m, dtype=complex)
        P = OperatorPencil(1, m, tuple(((j,), A) for j, A in terms), C)
        data = rng.normal(size=(11, m)) + 1j * rng.normal(size=(11, m))
        kind = "vector" if m > 1 else "scalar"
        fvals = data if m > 1 else data[:, 0]
        f = SequenceTable(nonneg_orthant(1), Box((0,), (10,)), fvals, kind, m if m > 1 else None)
        sol = solve(P, f, (1.0,), Box((0,), (50,)), Box((0,), (32,)))
        oracle = forward_recursion(terms, C, lambda k: data[k] if k <= 10 else np.zeros(m), 32)
        for k in range(0, 33):
            got = np.atleast_1d(np.asarray(sol.u.at((k,))))
            worst = max(worst, float(np.max(np.abs(got - oracle[k]))))
    # the 2-D diagonal-scaling pencil with gaussian-decay data
    P2 = fixtures.scaling_pencil()
    f2 = fixtures.gaussian_table(2, 10)
    sol2 = solve(P2, f2, (1.0, 1.0), Box((0, 0), (16, 16)), Box((0, 0), (12, 12)))
    rep2 = residual(P2, sol2.u, f2, Box((1, 1), (10, 10)))
    report(
        "criterion 8 (solver oracle equivalence)",
        worst <= 1e-8 and rep2["max_residual"] <= 1e-8,
        f"max abs dev {worst:.3e} (tol 1e-8); 2-D residual {rep2['max_residual']:.3e}",
    )


def test_criterion_09_volterra_weyl_solves():
    rng = np.random.default_rng(5)
    ok = True
    worst_ratio = 0.0
    for i in range(10):
        alpha = [0.3, 0.5, 1.4][i % 3]
        m = int(rng.integers(1, 3))
        A = np.eye(m) + 0.3 * rng.normal(size=(m, m))
        S = fixtures.weyl_fractional_problem(alpha, A)
        f = SequenceTable.delta(1)
        sol = solve(S, f, (1.3,), Box((0,), (80,)), Box((0,), (48,)))
        rep = residual(S, sol.u, f, Box((4,), (32,)))
        ratio = rep["max_residual"] / (10 * sol.ledger)
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and ratio <= 1.0
    S2 = fixtures.two_term_weyl_symbol()
    samples = [(1.4 * np.exp(2j * np.pi * t / 16),) for t in range(16)]
    probe = uniqueness_probe(S2, samples)
    witnessed = probe["verdict"] == "injectivity witnessed on samples"
    report(
        "criterion 9 (Volterra/Weyl solves)",
        ok and witnessed,
        f"worst residual/(10*ledger) {worst_ratio:.3e}; probe: {probe['verdict']}",
    )


def test_criterion_10_homogeneous_modes():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        order = int(rng.integers(1, 4))
        roots = rng.uniform(0.2, 0.9, size=order) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=order)
        )
        coeffs = np.poly(roots)  # highest power first
        terms = tuple(
            ((order - t,), np.array([[coeffs[t]]])) for t in range(order + 1)
        )
        P = OperatorPencil(1, 1, terms, np.eye(1))
        for lam in pencil_roots_1d(P):
            worst = max(
                worst, homogeneous_mode_residual(P, (lam,), Box((0,), (16,)))
            )
    report(
        "criterion 10 (homogeneous root modes, 10 pencils)",
        worst <= 1e-10,
        f"max residual change {worst:.3e} (tol 1e-10)",
    )


def test_criterion_11_determinism(tmp_path):
    # byte-identical CLI artifacts at thread counts 1 and 8; the library
    # computations behind criteria 1-10 are sequential and reuse this path
    rng = np.random.default_rng(7)
    f = SequenceTable(
        nonneg_orthant(2), Box((0, 0), (4, 4)), rng.normal(size=(5, 5))
    )
    src = tmp_path / "f.json"
    save(f, src)
    prob = {
        "kind": "pencil", "n": 1, "m": 1,
        "terms": [{"j": [1], "A": [[[1, 0]]]}, {"j": [0], "A": [[[-0.5, 0]]]}],
        "C": [[[1, 0]]],
        "data": {"generator": "delta"},
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(prob))
    blobs = []
    for threads in (1, 8):
        inv = tmp_path / f"inv{threads}.json"
        uout = tmp_path / f"u{threads}.json"
        for cmd in (
            ["transform", "invert", "--seq", str(src), "--radii", "1.0,1.0",
             "--window", "0:4,0:4", "--out", str(inv)],
            ["solve", "--problem", str(pfile), "--radii", "1.0",
             "--kernel-window", "0:40", "--check-window", "1:28", "--out", str(uout)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "zlattice.cli", "--threads", str(threads)] + cmd,
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
        blobs.append(inv.read_bytes() + uout.read_bytes())
    report(
        "criterion 11 (determinism across thread counts)",
        blobs[0] == blobs[1],
        f"artifacts identical: {blobs[0] == blobs[1]}",
    )
