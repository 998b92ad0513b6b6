"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison below is exact (integer or rational); the stated runtime
budgets are asserted with wall-clock measurements.  Expected values come
from the brute-force oracles in helpers.py, all independent of the library's
quotient-index machinery.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil, floor

import numpy as np
import pytest

from gvgraph import (
    FqVector,
    GraphParams,
    LinearCode,
    ball_volume,
    build_bound_report,
    build_spectrum_level0,
    descent_bound,
    gv_bound,
    hoffman_bound,
    run_algorithm1,
    write_pchk,
)
from helpers import degree_history, dense_descend, eigenvalue_level0, krawtchouk, lambda_history, max_independent_set_oracle, pairwise_distance_matrix, residue_counts_by_weight, vector_matrix

GVGRAPH = [sys.executable, "-m", "gvgraph"]

ORACLE_GRID = [(2, 11), (3, 7), (5, 5)]  # q^n <= 4000
GROUND_TRUTH_GRID = [(2, 10), (3, 6), (5, 4)]  # q^n <= 1024

THEOREM33_CELLS = [(2, n, d) for n in range(4, 13) for d in (3, 4, 5)] + [
    (3, n, d) for n in range(3, 8) for d in (3, 4)
]


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def theorem33_traces():
    return {cell: run_algorithm1(GraphParams(*cell)) for cell in THEOREM33_CELLS}


def test_criterion_01_krawtchouk_identity_suite():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3, 5):
        for n in range(1, 13):
            for d in range(1, n + 1):
                for x in range(1, n + 1):
                    total = sum(krawtchouk(k, x, n, q) for k in range(d))
                    assert total == krawtchouk(d - 1, x - 1, n - 1, q)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    announce(1, f"summation identity exact on {checked} grid points in {elapsed:.2f}s")


def test_criterion_02_and_03_spectrum_oracle_and_trace_identities():
    start = time.perf_counter()
    eigen_checked = 0
    for q, n_max in ORACLE_GRID:
        for n in range(1, n_max + 1):
            counts, weights = residue_counts_by_weight(q, n)
            total = q**n
            for d in range(1, n + 2):
                params = GraphParams(q, n, d)
                # counts over the difference set {u : 1 <= w(u) <= d-1}
                set_counts = counts[1:d].sum(axis=0)
                if q > 2:
                    for r in range(2, q):
                        assert np.array_equal(set_counts[r], set_counts[1])
                got = set_counts[0] - set_counts[1]
                lam_by_weight = np.array(
                    [eigenvalue_level0(params, w) for w in range(n + 1)], dtype=np.int64
                )
                expected = lam_by_weight[weights]
                assert np.array_equal(got, expected)
                eigen_checked += total

                # criterion 3: exact trace identities in unbounded integers
                table = build_spectrum_level0(params)
                rows = list(table.weight_rows())
                assert sum(lam * mult for _, lam, mult in rows) == 0
                assert sum(lam * lam * mult for _, lam, mult in rows) == total * params.degree
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(2, f"{eigen_checked} level-0 eigenvalues match the character-sum oracle in {elapsed:.2f}s")
    announce(3, "trace identities sum(lam)=0 and sum(lam^2)=q^n*D exact on the same grid")


def test_criterion_04_flagship_anchors():
    params = GraphParams(2, 7, 3)
    lam_min, argmin = build_spectrum_level0(params).min_eigenvalue()
    assert lam_min == -4
    assert argmin.digits == (0, 0, 0, 1, 1, 1, 1)
    assert gv_bound(params) == Fraction(128, 29)
    assert descent_bound(params, [lam_min]) == Fraction(128, 27)
    assert hoffman_bound(params, lam_min) == 16
    trace = run_algorithm1(params)
    assert degree_history(trace)[1] == 12
    announce(4, "(2,7,3) anchors lam_min=-4, gv=128/29, wilf=128/27, hoffman=16, D1=12")


def test_criterion_05_descent_ground_truth():
    start = time.perf_counter()
    levels_checked = 0
    for q, n_max in GROUND_TRUTH_GRID:
        for n in range(1, n_max + 1):
            M = vector_matrix(q, n)
            Mi = M.astype(np.int32)
            dist = pairwise_distance_matrix(M)
            weights = (M != 0).sum(axis=1)
            for d in range(1, n + 2):
                params = GraphParams(q, n, d)
                trace = run_algorithm1(params)
                table = build_spectrum_level0(params).densify()
                pivot_mat = np.zeros((0, n), dtype=np.int32)
                for t in range(trace.s + 1):
                    if t > 0:
                        rec = trace.levels[t - 1]
                        table = dense_descend(table, rec.pivot)
                        pivot_mat = np.vstack(
                            [pivot_mat, np.array(rec.pivot.digits, dtype=np.int32)]
                        )
                    if pivot_mat.shape[0]:
                        in_subspace = ((Mi @ pivot_mat.T) % q == 0).all(axis=1)
                    else:
                        in_subspace = np.ones(q**n, dtype=bool)
                    vt_idx = np.nonzero(in_subspace)[0]
                    assert len(vt_idx) == q ** (n - t)

                    degree = table.values[0]
                    st_idx = vt_idx[(weights[vt_idx] >= 1) & (weights[vt_idx] <= d - 1)]
                    assert len(st_idx) == degree

                    sub = dist[np.ix_(vt_idx, vt_idx)]
                    vertex_degrees = ((sub >= 1) & (sub <= d - 1)).sum(axis=1)
                    assert (vertex_degrees == degree).all()

                    reps = np.array([v.digits for v, _ in table.entries()], dtype=np.int32)
                    expected = np.array([lam for _, lam in table.entries()], dtype=np.int64)
                    dots = (Mi[st_idx] @ reps.T) % q
                    c0 = (dots == 0).sum(axis=0)
                    c1 = (dots == 1).sum(axis=0)
                    if q > 2:
                        for r in range(2, q):
                            assert np.array_equal((dots == r).sum(axis=0), c1)
                    assert np.array_equal(c0 - c1, expected)

                    values = table.values
                    assert sum(values) == 0
                    assert sum(v * v for v in values) == len(vt_idx) * degree
                    levels_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    announce(5, f"{levels_checked} materialized levels match vertex counts, degrees and "
                f"averaged character sums in {elapsed:.2f}s")


def test_criterion_06_theorem33_end_to_end(theorem33_traces, tmp_path):
    start = time.perf_counter()
    for cell, trace in theorem33_traces.items():
        q, n, d = cell
        params = GraphParams(q, n, d)
        volume = ball_volume(params, d - 1)
        total = sum((q - 1) * q**t * lam for t, lam in enumerate(lambda_history(trace)))
        # Termination identity, exact.  The paper-literal sum (without the -1)
        # always lands on exactly 1; both are pinned so nothing hides the gap.
        assert volume - 1 + total == 0
        assert volume + total == 1

        code = LinearCode(q, n, trace.parity_rows)
        path = tmp_path / f"c{q}_{n}_{d}.pchk"
        write_pchk(str(path), code)
        result = subprocess.run(
            GVGRAPH + ["verify", str(path), "-d", str(d)], capture_output=True, text=True
        )
        assert result.returncode == 0, (cell, result.stdout, result.stderr)
        out = dict(
            line.split(": ") for line in result.stdout.strip().splitlines()
        )
        assert int(out["dimension"]) == n - trace.s
        assert int(out["codewords"]) == q ** (n - trace.s)

        if trace.levels:
            assert trace.code_size >= ceil(trace.bounds[-1])
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    announce(6, f"{len(theorem33_traces)} cells terminate with the exact identity and "
                f"verify at distance >= d in {elapsed:.2f}s")


def test_criterion_07_monotonicity(theorem33_traces):
    for cell, trace in theorem33_traces.items():
        params = GraphParams(*cell)
        bounds = trace.bounds
        assert all(a <= b for a, b in zip(bounds, bounds[1:])), cell
        if trace.levels and trace.levels[0].lambda_min < -1:
            assert bounds[-1] > gv_bound(params), cell
    announce(7, "descent bounds nondecreasing in t; final bound strictly beats GV "
                "whenever lam_min(0) < -1")


def test_criterion_08_exact_alpha_sandwich():
    start = time.perf_counter()
    cells = [
        (q, n, d)
        for q, n_max in ((2, 6), (3, 3), (5, 2))
        for n in range(2, n_max + 1)
        for d in range(2, n + 2)
    ]
    assert {(2, 4, 2), (2, 5, 3), (2, 6, 3), (3, 3, 2)} <= set(cells)
    for cell in cells:
        params = GraphParams(*cell)
        trace = run_algorithm1(params)
        alpha, witness = max_independent_set_oracle(params)
        lam_min, _ = build_spectrum_level0(params).min_eigenvalue()
        hoffman = hoffman_bound(params, lam_min)
        if trace.levels:
            assert ceil(trace.bounds[-1]) <= trace.code_size, cell
        assert trace.code_size <= alpha, cell
        assert alpha <= floor(hoffman), cell
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(8, f"ceil(descent) <= q^(n-s) <= alpha <= floor(hoffman) exact on "
                f"{len(cells)} cells in {elapsed:.2f}s")


def test_criterion_09_determinism_and_round_trip(tmp_path):
    cells = [(2, 7, 3), (2, 4, 2), (3, 4, 3), (2, 9, 4), (5, 3, 2)]
    for q, n, d in cells:
        outputs = []
        for run in ("a", "b"):
            path = tmp_path / f"{q}_{n}_{d}_{run}.pchk"
            result = subprocess.run(
                GVGRAPH + ["construct", "-q", str(q), "-n", str(n), "-d", str(d), "-o", str(path)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0
            outputs.append((path.read_bytes(), result.stdout))
        assert outputs[0] == outputs[1], (q, n, d)
        verify = subprocess.run(
            GVGRAPH + ["verify", str(tmp_path / f"{q}_{n}_{d}_a.pchk"), "-d", str(d)],
            capture_output=True,
            text=True,
        )
        assert verify.returncode == 0
    announce(9, f"construct -> verify round-trips byte-identically on {len(cells)} cells")


def test_criterion_10_scale_smoke(tmp_path):
    path = tmp_path / "large.pchk"
    start = time.perf_counter()
    result = subprocess.run(
        GVGRAPH + ["construct", "-q", "2", "-n", "20", "-d", "5", "-o", str(path)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    assert elapsed < 900
    trace = json.loads(result.stdout)
    assert trace[0]["degree"] == ball_volume(GraphParams(2, 20, 5), 4) - 1
    header = path.read_text().splitlines()[:4]
    assert header[:3] == ["# gvpchk v1", "q 2", "n 20"]
    announce(10, f"construct -q 2 -n 20 -d 5 completed in {elapsed:.1f}s (budget 900s)")
