import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import logging
import math
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from gvgraph import INFINITE_DISTANCE, GraphParams, bounds, build_bound_report, cli, codes, min_distance, modq, read_pchk, run_algorithm1, vectors
from helpers import CLASSICAL_CODES, dense_descent, hamming_parity_rows

GVGRAPH = [sys.executable, "-m", "gvgraph"]


def run_cli(*args, **kwargs):
    return subprocess.run(GVGRAPH + list(args), capture_output=True, text=True, **kwargs)


class TestBoundsCommand:
    def test_json_flagship(self):
        r = run_cli("bounds", "-q", "2", "-n", "7", "-d", "3", "--json")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["gv"] == "128/29"
        assert obj["wilf_cor27"] == "128/27"
        assert obj["hoffman_upper"] == "16"
        assert obj["hoffman_paper_literal"] == "64/3"
        assert obj["descent_bounds"] == ["128/27", "128/21", "128/9"]
        assert obj["constructed_code_size"] == 16
        assert obj["s"] == 3
        assert obj["degenerate"] is False

    def test_rationals_reparse_exactly(self):
        r = run_cli("bounds", "-q", "3", "-n", "5", "-d", "3", "--json")
        obj = json.loads(r.stdout)
        assert Fraction(obj["gv"]) == Fraction(3**5, 1 + 5 * 2 + 10 * 4)
        assert Fraction(obj["wilf_cor27"]) >= Fraction(obj["gv"])
        for text in obj["descent_bounds"]:
            Fraction(text)

    def test_composite_q_exits_2(self):
        r = run_cli("bounds", "-q", "4", "-n", "7", "-d", "3")
        assert r.returncode == 2
        assert "q must be prime" in r.stderr

    def test_degenerate_d1(self):
        r = run_cli("bounds", "-q", "2", "-n", "7", "-d", "1", "--json")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert Fraction(obj["gv"]) == 128
        assert obj["degenerate"] is True
        assert obj["hoffman_upper"] is None

    def test_budget_skips_descent_with_warning(self):
        r = run_cli("bounds", "-q", "2", "-n", "10", "-d", "3", "--budget", "64")
        assert r.returncode == 0
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert rows[0]["gv"] == str(Fraction(1024, 56))
        for key in ("descent_bounds", "descent_final", "descent_final_ceil", "constructed_code_size", "s"):
            assert rows[0][key] == ""
        assert "gvgraph: WARNING: descent skipped for (q=2, n=10, d=3)" in r.stderr
        assert "budget of 64" in r.stderr

    def test_each_in_process_call_logs_to_its_own_stderr(self):
        argv = ["bounds", "-q", "2", "-n", "10", "-d", "3", "--budget", "64"]
        for _ in range(3):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 0
            assert err.getvalue().count("gvgraph: WARNING: descent skipped for (q=2, n=10, d=3)") == 1

    def test_bound_report_built_once(self, monkeypatch, caplog):
        params = GraphParams(2, 10, 3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return build_bound_report(*args, **kwargs)

        monkeypatch.setattr(cli, "build_bound_report", counted)
        with caplog.at_level(logging.WARNING, logger="gvgraph"):
            report, status = cli._bound_report(params, 64)
        assert status == "skipped"
        assert report == build_bound_report(params)
        assert len(calls) == 1
        assert ["descent skipped" in r.getMessage() for r in caplog.records] == [True]

        calls.clear()
        report, status = cli._bound_report(params, None)
        assert status == "ok"
        assert report == build_bound_report(params, run_algorithm1(params))
        assert len(calls) == 1

    def test_csv_output(self):
        r = run_cli("bounds", "-q", "2", "-n", "7", "-d", "3")
        assert r.returncode == 0
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert len(rows) == 1
        assert rows[0]["gv"] == "128/29"
        assert rows[0]["gv_ceil"] == "5"
        assert rows[0]["hoffman_upper_floor"] == "16"


class TestSpectrumCommand:
    def test_level0_shape_and_values(self):
        r = run_cli("spectrum", "-q", "2", "-n", "7", "-d", "3")
        assert r.returncode == 0
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert len(rows) == 8
        assert [int(x["eigenvalue"]) for x in rows] == [28, 14, 4, -2, -4, -2, 4, 14]
        assert [int(x["multiplicity"]) for x in rows] == [1, 7, 21, 35, 35, 21, 7, 1]

    def test_d1_all_zero_column(self):
        r = run_cli("spectrum", "-q", "3", "-n", "4", "-d", "1")
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert all(int(x["eigenvalue"]) == 0 for x in rows)

    def test_level1_dense_rows(self):
        r = run_cli("spectrum", "-q", "2", "-n", "7", "-d", "3", "--level", "1")
        assert r.returncode == 0
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert len(rows) == 64
        assert rows[0]["vector"] == "0000000"
        assert int(rows[0]["eigenvalue"]) == 12
        assert min(int(x["eigenvalue"]) for x in rows) == -4

    def test_level0_prints_past_the_int_to_str_limit(self):
        # With Python's least limit of 640 digits, C(2200, 1100) (661 digits)
        # would not print; the rows are formatted with the limit lifted, and
        # the limit holds again afterwards.
        n, old = 2200, sys.get_int_max_str_digits()
        out = io.StringIO()
        sys.set_int_max_str_digits(640)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["spectrum", "-q", "2", "-n", str(n), "-d", "3"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        rows = list(csv.DictReader(out.getvalue().splitlines()))
        assert len(rows) == n + 1
        assert [int(x["weight"]) for x in rows] == list(range(n + 1))
        assert [int(x["multiplicity"]) for x in rows] == [math.comb(n, w) for w in range(n + 1)]
        assert len(rows[n // 2]["multiplicity"]) > 640

    def test_level_beyond_termination_exits_2(self):
        r = run_cli("spectrum", "-q", "2", "-n", "4", "-d", "2", "--level", "2")
        assert r.returncode == 2
        assert "beyond termination" in r.stderr

    def test_budget_exits_3(self):
        r = run_cli("spectrum", "-q", "2", "-n", "10", "-d", "3", "--level", "1", "--budget", "64")
        assert r.returncode == 3

    @pytest.mark.parametrize("cell", [(2, 7, 3), (3, 5, 3), (5, 4, 3)])
    def test_typed_levels_print_the_dense_rows(self, cell):
        # Levels 1..3, stdout and exit code, against the dense route.
        levels = dense_descent(GraphParams(*cell))
        q, n, d = map(str, cell)
        for level in (1, 2, 3):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["spectrum", "-q", q, "-n", n, "-d", d, "--level", str(level)])
            if level < len(levels):
                rows = "".join(f"{vec},{lam}\n" for vec, lam in levels[level][0].entries())
                assert (code, out.getvalue()) == (0, "vector,eigenvalue\n" + rows)
            else:
                assert (code, out.getvalue()) == (2, "")


class TestConstructCommand:
    def test_writes_file_and_trace(self, tmp_path):
        out = tmp_path / "h.pchk"
        r = run_cli("construct", "-q", "2", "-n", "7", "-d", "3", "-o", str(out))
        assert r.returncode == 0
        trace = json.loads(r.stdout)
        assert [rec["lambda_min"] for rec in trace] == [-4, -4, -4]
        assert trace[0]["pivot"] == "0001111"
        assert trace[0]["degree"] == 28
        assert (trace[-1]["bound_numerator"], trace[-1]["bound_denominator"]) == (128, 9)
        assert out.read_text().startswith("# gvpchk v1\nq 2\nn 7\ns 3\n")

    def test_d1_header_only(self, tmp_path):
        out = tmp_path / "e.pchk"
        r = run_cli("construct", "-q", "2", "-n", "3", "-d", "1", "-o", str(out))
        assert r.returncode == 0
        assert json.loads(r.stdout) == []
        assert out.read_text() == "# gvpchk v1\nq 2\nn 3\ns 0\n"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.pchk", tmp_path / "b.pchk"
        ra = run_cli("construct", "-q", "3", "-n", "4", "-d", "3", "-o", str(a))
        rb = run_cli("construct", "-q", "3", "-n", "4", "-d", "3", "-o", str(b))
        assert ra.stdout == rb.stdout
        assert a.read_bytes() == b.read_bytes()

    def test_budget_refusal_leaves_no_partial_file(self, tmp_path):
        out = tmp_path / "big.pchk"
        r = run_cli("construct", "-q", "2", "-n", "10", "-d", "3", "-o", str(out), "--budget", "64")
        assert r.returncode == 3
        assert list(tmp_path.iterdir()) == []


class TestBudgetRefusalsAtAnySize:
    """Over-budget requests exit 3 at once, however large q^k is."""

    @staticmethod
    def main_timed(argv):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, time.perf_counter() - start, err.getvalue()

    @pytest.mark.parametrize("n, d", [(20000, 3), (3000, 1500)])
    def test_construct_huge_n(self, tmp_path, n, d):
        argv = ["construct", "-q", "2", "-n", str(n), "-d", str(d), "-o", str(tmp_path / "h.pchk")]
        code, elapsed, err = self.main_timed(argv)
        assert code == 3, err
        assert f"needs 2^{n} table entries" in err
        assert elapsed < 5.0
        assert list(tmp_path.iterdir()) == []

    def test_bounds_at_large_n_reports_without_the_descent(self):
        # (2, 14299, 3) prints exact values past the interpreter's 4,300-digit
        # int-to-str limit, which holds again once they are printed.
        limit = sys.get_int_max_str_digits()
        for q, n, d in [(2, 3000, 1500), (2, 14299, 3)]:
            argv = ["bounds", "-q", str(q), "-n", str(n), "-d", str(d), "--json"]
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code == 0
            assert time.perf_counter() - start < 10.0
            assert sys.get_int_max_str_digits() == limit
            with cli._all_digits():
                report = json.loads(out.getvalue())
                assert Fraction(report["gv"]) == build_bound_report(GraphParams(q, n, d)).gv
            assert report["s"] is None and report["lambda_min"] < 0

    @pytest.mark.parametrize("n", [20000000, 100000000, pytest.param("9" * 5000, id="5000-digits")])
    def test_verify_huge_header(self, tmp_path, n):
        path = tmp_path / "huge.pchk"
        path.write_text(f"# gvpchk v1\nq 3\nn {n}\ns 0\n")
        code, elapsed, err = self.main_timed(["verify", str(path), "-d", "3"])
        if isinstance(n, str):
            # Parsing keeps the int-from-str digit limit that printing lifts;
            # the message names the size and the limit, and echoes no digits.
            assert code == 2, err
            assert f"line 3: the integer has 5000 digits, more than the limit of {sys.get_int_max_str_digits()}" in err
            assert len(err) < 200
        else:
            assert code == 3, err
            assert f"needs 3^{n} table entries" in err
        assert elapsed < 5.0


class TestVerifyHighRate:
    """High-rate codes verify from their q^s dual words; the budget still caps q^k."""

    @staticmethod
    def write_hamming(tmp_path, m):
        rows = hamming_parity_rows(m)
        path = tmp_path / f"h{len(rows[0])}.pchk"
        body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        path.write_text(f"# gvpchk v1\nq 2\nn {len(rows[0])}\ns {m}\n{body}")
        return path

    def test_hamming_31_26_verifies_at_the_default_budget(self, tmp_path):
        path = self.write_hamming(tmp_path, 5)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path), "-d", "3"])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert out.getvalue() == "q: 2\nn: 31\ndimension: 26\ncodewords: 67108864\nmin_distance: 3\n"

    def test_hamming_63_57_verifies_from_its_64_dual_words(self, tmp_path):
        path = self.write_hamming(tmp_path, 6)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path), "-d", "3"])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert out.getvalue() == f"q: 2\nn: 63\ndimension: 57\ncodewords: {2**57}\nmin_distance: 3\n"

    def test_hamming_63_57_exits_3_at_once(self, tmp_path):
        # Both sides over the budget: the message names the smaller, the 2^6 dual words.
        path = self.write_hamming(tmp_path, 6)
        code, elapsed, err = TestBudgetRefusalsAtAnySize.main_timed(["verify", str(path), "-d", "3", "--budget", "32"])
        assert code == 3
        assert err == (
            "error: dual-word enumeration of a [63, 57] code needs 2^6 table entries, "
            "exceeding the budget of 32; raise the budget to proceed\n"
        )
        assert elapsed < 5.0

    def test_budget_between_dual_and_code_size_verifies(self, tmp_path):
        path = self.write_hamming(tmp_path, 4)
        for budget, want in [("16", 0), ("15", 3)]:
            code, _, err = TestBudgetRefusalsAtAnySize.main_timed(["verify", str(path), "-d", "3", "--budget", budget])
            assert code == want
        assert err == (
            "error: dual-word enumeration of a [15, 11] code needs 2^4 table entries, "
            "exceeding the budget of 15; raise the budget to proceed\n"
        )


class TestBudgetCoversTheWholeSpace:
    """--budget is checked against q^n before any level is built, although
    typed levels hold far fewer entries."""

    @pytest.mark.parametrize("q, n", [(2, "15:16"), (3, "10")])
    def test_sweep_rows_over_budget_stay_skipped(self, tmp_path, q, n):
        # The benchmark's sweep rows run with --budget 20000.
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "-q", str(q), "-n", n, "-d", "2:6", "-o", str(out), "--budget", "20000")
        assert r.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5 * (2 if q == 2 else 1)
        assert {x["status"] for x in rows} == {"skipped"}

    def test_construct_exits_3_with_the_level0_message(self, tmp_path):
        r = run_cli("construct", "-q", "2", "-n", "10", "-d", "3", "-o", str(tmp_path / "c.pchk"), "--budget", "64")
        assert r.returncode == 3
        assert r.stderr == (
            "error: dense level-0 spectrum of G_(2,10,3) needs 2^10 table entries, "
            "exceeding the budget of 64; raise the budget to proceed\n"
        )


class TestVerifyCommand:
    @pytest.fixture()
    def hamming_file(self, tmp_path):
        out = tmp_path / "h.pchk"
        run_cli("construct", "-q", "2", "-n", "7", "-d", "3", "-o", str(out))
        return out

    def test_verify_passes_at_3(self, hamming_file):
        r = run_cli("verify", str(hamming_file), "-d", "3")
        assert r.returncode == 0
        assert "dimension: 4" in r.stdout
        assert "codewords: 16" in r.stdout
        assert "min_distance: 3" in r.stdout

    def test_verify_fails_at_4(self, hamming_file):
        r = run_cli("verify", str(hamming_file), "-d", "4")
        assert r.returncode == 1

    def test_corrupted_magic_exits_2(self, tmp_path, hamming_file):
        bad = tmp_path / "bad.pchk"
        bad.write_text(hamming_file.read_text().replace("gvpchk v1", "gvpchk v9"))
        r = run_cli("verify", str(bad), "-d", "3")
        assert r.returncode == 2

    def test_budget_exits_3(self, hamming_file):
        # Both sides of [7, 4] over the budget: 2^3 dual words, 2^4 codewords.
        r = run_cli("verify", str(hamming_file), "-d", "3", "--budget", "4")
        assert r.returncode == 3

    @pytest.mark.parametrize("name", ["golay_24_12_8", "hamming_15_11_3", "ternary_golay_11_6_5"])
    def test_verify_builds_no_row_vector(self, tmp_path, monkeypatch, name):
        # The parsed rows stay packed words on both routes, codewords and dual words.
        q, n, k, d, rows = CLASSICAL_CODES[name]
        path = tmp_path / "c.pchk"
        body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        path.write_text(f"# gvpchk v1\nq {q}\nn {n}\ns {len(rows)}\n{body}")
        built = []
        post_init = vectors.FqVector.__post_init__
        monkeypatch.setattr(vectors.FqVector, "__post_init__", lambda vec: built.append(vec) or post_init(vec))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path), "-d", str(d)])
        assert code == 0
        assert out.getvalue() == f"q: {q}\nn: {n}\ndimension: {k}\ncodewords: {q**k}\nmin_distance: {d}\n"
        assert built == []
        vectors.FqVector(q, rows[0])  # the counter counts
        assert len(built) == 1

    @pytest.mark.parametrize("position", [0, 2, 3])
    @pytest.mark.parametrize("digit", range(2, 10))
    def test_a_binary_digit_of_2_to_9_exits_2(self, tmp_path, digit, position):
        # A q = 2 slot is one bit, with no guard bit: int(text, 2) refuses
        # the digit, and the digit-by-digit read names the fault.
        row = ["0", "1", "0", "1"]
        row[position] = str(digit)
        path = tmp_path / "b.pchk"
        path.write_text(f"# gvpchk v1\nq 2\nn 4\ns 1\n{' '.join(row)}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path), "-d", "2"])
        assert code == 2
        assert err.getvalue() == "error: row 0: digit out of range [0, 2)\n"

    def test_huge_prime_q_decided_fast(self, tmp_path):
        big = tmp_path / "big.pchk"
        big.write_text(f"# gvpchk v1\nq {10**18 + 3}\nn 1\ns 1\n1\n")
        r = run_cli("verify", str(big), "-d", "1", timeout=10)
        assert r.returncode == 0
        assert "min_distance: infinity" in r.stdout

    def test_huge_composite_q_exits_2(self, tmp_path):
        big = tmp_path / "big.pchk"
        big.write_text(f"# gvpchk v1\nq {(10**9 + 7) * (10**9 + 9)}\nn 1\ns 1\n1\n")
        r = run_cli("verify", str(big), "-d", "1", timeout=10)
        assert r.returncode == 2
        assert "q must be prime" in r.stderr

    @pytest.mark.parametrize(
        "header, rows, message",
        [("q 1\nn 2", "0 0\n", "q must be prime, got 1"), ("q 2\nn 0", "\n", "n must be positive, got 0")],
        ids=["q1", "n0"],
    )
    @pytest.mark.parametrize("with_rows", [False, True])
    def test_field_fault_exits_2_with_one_message(self, tmp_path, header, rows, message, with_rows):
        path = tmp_path / "f.pchk"
        path.write_text(f"# gvpchk v1\n{header}\ns {int(with_rows)}\n{rows if with_rows else ''}")
        r = run_cli("verify", str(path), "-d", "1")
        assert r.returncode == 2
        assert r.stderr == f"error: {message}\n"

    def test_trivial_code_zero_budget_exits_3(self, tmp_path):
        path = tmp_path / "t.pchk"
        path.write_text("# gvpchk v1\nq 2\nn 2\ns 2\n1 0\n0 1\n")
        assert min_distance(read_pchk(str(path))) == INFINITE_DISTANCE
        r = run_cli("verify", str(path), "-d", "2", "--budget", "0")
        assert r.returncode == 3
        assert "needs 2^0 table entries" in r.stderr

    def test_trivial_code_infinite_distance(self, tmp_path):
        out = tmp_path / "c.pchk"
        run_cli("construct", "-q", "2", "-n", "3", "-d", "4", "-o", str(out))
        r = run_cli("verify", str(out), "-d", "4")
        assert r.returncode == 0
        assert "min_distance: infinity" in r.stdout

    def test_huge_code_prints_its_exact_size(self, tmp_path):
        # The even-weight [14300, 14299, 2] code has 2^14299 codewords: 4,305
        # digits, past the 4,300 that int's str() refuses.
        path = tmp_path / "even.pchk"
        path.write_text("# gvpchk v1\nq 2\nn 14300\ns 1\n" + " ".join(["1"] * 14300) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path), "-d", "2"])
        lines = out.getvalue().splitlines()
        assert code == 0
        assert lines[:3] + lines[4:] == ["q: 2", "n: 14300", "dimension: 14299", "min_distance: 2"]
        size = lines[3].removeprefix("codewords: ")
        assert len(size) == 4305 and int(Decimal(size)) == 2**14299


class TestBinaryPathsReadNoGuardConstants:
    """A q = 2 slot is one bit, with no guard bit, so ``_Slots.high``,
    ``bias`` and ``nz`` mean nothing there: no q = 2 path of ``verify`` or
    ``construct`` may read them."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        """(q, name) of every read of the three constants while the test runs."""
        reads = []
        for name in ("high", "bias", "nz"):
            func = vars(modq._Slots)[name].func
            monkeypatch.setattr(modq._Slots, name, property(lambda slots, name=name, func=func: reads.append((slots.q, name)) or func(slots)))
        return reads

    @staticmethod
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @pytest.mark.parametrize("sep", [" ", "\t"])
    @pytest.mark.parametrize("name", ["hamming_7_4_3", "hamming_15_11_3", "golay_23_12_7", "golay_24_12_8"])
    def test_verify(self, tmp_path, reads, name, sep):
        # Dual words (s < k) and codewords (golay_24_12_8, k = s); rows of
        # one int() call and, tab-separated, rows read digit by digit.
        q, n, k, d, rows = CLASSICAL_CODES[name]
        path = tmp_path / "c.pchk"
        body = "".join(sep.join(map(str, row)) + "\n" for row in rows)
        path.write_text(f"# gvpchk v1\nq {q}\nn {n}\ns {len(rows)}\n{body}")
        assert self.run(["verify", str(path), "-d", str(d)]) == 0
        assert reads == []

    @pytest.mark.parametrize("cell", [(2, 7, 3), (2, 12, 4), (2, 18, 4), (2, 20, 5)])
    def test_construct_then_verify(self, tmp_path, reads, cell):
        # Each cell ends on edge levels: the low-weight word search, the
        # pattern columns and the edge values all run on packed words.
        q, n, d = map(str, cell)
        path = tmp_path / "c.pchk"
        assert self.run(["construct", "-q", q, "-n", n, "-d", d, "-o", str(path)]) == 0
        assert self.run(["verify", str(path), "-d", d]) == 0
        assert reads == []

    def test_the_probe_sees_a_ternary_read(self, tmp_path, reads):
        q, n, k, d, rows = CLASSICAL_CODES["ternary_golay_11_6_5"]
        path = tmp_path / "c.pchk"
        body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        path.write_text(f"# gvpchk v1\nq {q}\nn {n}\ns {len(rows)}\n{body}")
        assert self.run(["verify", str(path), "-d", str(d)]) == 0
        assert {name for _, name in reads} == {"high", "bias", "nz"}
        assert {q for q, _ in reads} == {3}


class TestSweepCommand:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "-q", "2", "-n", "4:7", "-d", "3:3", "-o", str(out))
        assert r.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(x["q"], x["n"], x["d"]) for x in rows] == [("2", str(n), "3") for n in (4, 5, 6, 7)]
        assert all(x["status"] == "ok" for x in rows)
        for row in rows:
            assert Fraction(row["gv"]) <= Fraction(row["wilf_cor27"])
            final = Fraction(row["descent_final"])
            assert final >= Fraction(row["wilf_cor27"])
            assert int(row["constructed_code_size"]) == 2 ** int(row["n"]) // 2 ** int(row["s"])

    def test_invalid_cells_skipped_with_warning(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "-q", "2,4", "-n", "2:3", "-d", "4:4", "-o", str(out))
        assert r.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        # only (2,3,4) is valid: d <= n+1 fails for n=2, q=4 is composite
        assert [(x["q"], x["n"], x["d"]) for x in rows] == [("2", "3", "4")]
        assert "skipping invalid cell" in r.stderr

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        r = run_cli("sweep", "-q", "2", "-n", "5:4", "-d", "3:3", "-o", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("q,n,d,status")

    def test_budget_cells_marked_skipped(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "-q", "2", "-n", "4:8", "-d", "3:3", "-o", str(out), "--budget", "32")
        assert r.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [x["status"] for x in rows] == ["ok", "ok", "skipped", "skipped", "skipped"]
        skipped = [x for x in rows if x["status"] == "skipped"]
        assert all(x["descent_final"] == "" and x["gv"] != "" for x in skipped)

    def test_json_format_valid_and_exact(self, tmp_path):
        out = tmp_path / "sweep.json"
        r = run_cli("sweep", "-q", "2,3", "-n", "3:4", "-d", "2:3", "-o", str(out), "--format", "json")
        assert r.returncode == 0
        rows = json.loads(out.read_text())
        assert all(Fraction(x["gv"]) > 0 for x in rows)
        cells = [(x["q"], x["n"], x["d"]) for x in rows]
        assert cells == sorted(cells)

    def test_parallel_jobs_deterministic(self, tmp_path):
        # Each worker fills its own logarithm cache; the rates must not change.
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert run_cli("sweep", "-q", "2,3", "-n", "4:12", "-d", "2:4", "-o", str(seq)).returncode == 0
        assert run_cli("sweep", "-q", "2,3", "-n", "4:12", "-d", "2:4", "-o", str(par), "--jobs", "2").returncode == 0

        def strip_runtime(path):
            lines = path.read_text().splitlines()
            assert lines[0].endswith(",runtime_seconds")
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_runtime(seq) == strip_runtime(par)
        assert any(row["asymptotic_rate"] for row in csv.DictReader(seq.read_text().splitlines()))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cells_past_the_digit_limit_keep_their_rows(self, tmp_path, jobs):
        # Each row's exact values pass the 4,300-digit int-to-str limit,
        # formatted in the worker and written by the parent.
        out = tmp_path / "s.csv"
        r = run_cli("sweep", "-q", "2", "-n", "14299:14300", "-d", "3:3", "-o", str(out), "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(x["n"], x["status"]) for x in rows] == [("14299", "skipped"), ("14300", "skipped")]
        with cli._all_digits():
            for row in rows:
                assert Fraction(row["gv"]) == build_bound_report(GraphParams(2, int(row["n"]), 3)).gv
                assert len(row["gv"]) > 4300

    def test_sweep_takes_each_logarithm_once(self, tmp_path):
        bounds._ln.cache_clear()
        argv = ["sweep", "-q", "2,3,5,7", "-n", "2:14", "-d", "2:6", "-o", str(tmp_path / "s.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        # Every rate needs ln k for integers k <= n = 14 and ln q.
        assert bounds._ln.cache_info().misses <= 14 + 4


class TestSweepJobs:
    """The worker count never exceeds the cells or the CPUs; no process is started here."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        # ``cli`` imports the pool class from here when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        return created

    def test_importing_the_cli_loads_no_pool(self):
        # A fresh interpreter: multiprocessing comes in only with a pool of two or more workers.
        probe = "import sys, gvgraph.cli; print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def sweep(self, tmp_path, n_range, jobs):
        argv = ["sweep", "-q", "2", "-n", n_range, "-d", "3", "-o", str(tmp_path / "s.csv"), "--jobs", str(jobs)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    @pytest.mark.parametrize("jobs", [0, -1, -100000])
    def test_jobs_below_one_exits_2(self, tmp_path, pools, jobs):
        code, err = self.sweep(tmp_path, "4:6", jobs)
        assert code == 2
        assert "--jobs must be at least 1" in err
        assert pools == []
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "n_range, jobs, workers",
        [("4:4", 100000, None), ("4:6", 100000, 3), ("4:15", 100000, 8), ("4:15", 5, 5), ("4:15", 1, None)],
    )
    def test_workers_capped_by_cells_and_cpus(self, tmp_path, pools, n_range, jobs, workers):
        code, err = self.sweep(tmp_path, n_range, jobs)
        assert code == 0, err
        assert pools == ([] if workers is None else [workers])
        lo, hi = map(int, n_range.split(":"))
        rows = list(csv.DictReader((tmp_path / "s.csv").read_text().splitlines()))
        assert [int(x["n"]) for x in rows] == list(range(lo, hi + 1))


def test_usage_error_exits_2():
    r = run_cli("bounds", "-q", "2", "-n", "7")
    assert r.returncode == 2


def test_main_calls_share_one_parser(monkeypatch, tmp_path):
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as usage:
            cli.main(["bounds", "-q", "2", "-n", "7"])
        assert usage.value.code == 2 and "-d" in err.getvalue()
        path = tmp_path / "h.pchk"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["construct", "-q", "2", "-n", "7", "-d", "3", "-o", str(path)]) == 0
            assert cli.main(["verify", str(path), "-d", "3"]) == 0
        assert "min_distance: 3" in out.getvalue()
        assert len(built) == 1 and cli._parser() is built[0]
        # A fresh parser comes with a fresh command table, which the next call reads.
        commands = cli._parser().commands
        cli._parser.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(path), "-d", "3"]) == 0
        assert len(built) == 2 and cli._parser() is built[1]
        assert cli._parser().commands["verify"] is not commands["verify"]
    finally:
        cli._parser.cache_clear()


def main_exit(argv):
    """(exit code, stdout, stderr) of one ``main`` call that exits through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


def test_a_command_argv_is_parsed_once(monkeypatch, tmp_path):
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(parser, *args, **kwargs):
        calls.append(parser.prog)
        return real(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    path = tmp_path / "h.pchk"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "-q", "2", "-n", "7", "-d", "3", "-o", str(path)]) == 0
        assert cli.main(["verify", str(path), "-d", "3"]) == 0
    assert calls == ["gvgraph construct", "gvgraph verify"]


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        ([], 2, 2, "error: the following arguments are required: command"),
        (["-h"], 0, 1, "{bounds,spectrum,construct,verify,sweep}"),
        (["no-such-command"], 2, 2, "error: argument command: invalid choice: 'no-such-command'"),
    ],
    ids=["empty", "help", "unknown-command"],
)
def test_argv_without_a_command_goes_to_the_full_parser(argv, code, stream, text):
    got = main_exit(argv)
    assert got[0] == code
    assert got[stream].startswith("usage: gvgraph [-h] {bounds,spectrum,construct,verify,sweep} ...\n")
    assert text in got[stream]


@pytest.mark.parametrize("command", ["bounds", "spectrum", "construct", "verify", "sweep"])
def test_command_help_is_the_full_parsers(command):
    # The help the full parser prints for ``<command> -h``, byte for byte.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args([command, "-h"])
    assert exit_.value.code == 0
    assert main_exit([command, "-h"]) == (0, out.getvalue(), "")


def test_unknown_option_after_a_command_exits_2(tmp_path):
    code, out, err = main_exit(["verify", str(tmp_path / "h.pchk"), "-d", "3", "--bogus"])
    assert code == 2 and out == ""
    assert err == "usage: gvgraph verify [-h] -d D [--budget BUDGET] pchk\ngvgraph verify: error: unrecognized arguments: --bogus\n"


# Each command that writes an output file, with its argv up to ``-o``.
OUTPUT_COMMANDS = {
    "construct": ["construct", "-q", "2", "-n", "4", "-d", "3"],
    "sweep": ["sweep", "-q", "2", "-n", "4", "-d", "2:3"],
    "bounds": ["bounds", "-q", "2", "-n", "4", "-d", "3"],
    "spectrum": ["spectrum", "-q", "2", "-n", "4", "-d", "3", "--level", "1"],
}


def refuse_unwritable_output(monkeypatch, tmp_path, argv, path, errno_text):
    """``argv -o path`` exits 2 before any descent runs (both entry points
    patched to raise), with the error the write itself gives for ``path``,
    which names the path given, not the temp file's random name; no temp
    file is left."""

    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran before the output path was checked")

    monkeypatch.setattr(cli, "run_algorithm1", no_descent)
    monkeypatch.setattr(cli, "descend", no_descent)
    with pytest.raises(OSError) as written:
        codes._atomic_write_text(path, "")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv + ["-o", path]) == 2
    assert err.getvalue() == f"error: {written.value}\n" == f"error: {errno_text}: {path!r}\n"
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("argv", list(OUTPUT_COMMANDS.values()), ids=list(OUTPUT_COMMANDS))
def test_a_write_into_a_missing_directory_names_the_given_path(monkeypatch, tmp_path, argv):
    path = str(tmp_path / "missing" / "out.txt")
    refuse_unwritable_output(monkeypatch, tmp_path, argv, path, "[Errno 2] No such file or directory")


@pytest.mark.parametrize("argv", list(OUTPUT_COMMANDS.values()), ids=list(OUTPUT_COMMANDS))
def test_a_write_under_a_regular_file_names_the_given_path(monkeypatch, tmp_path, argv):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / "file" / "out.txt")
    refuse_unwritable_output(monkeypatch, tmp_path, argv, path, "[Errno 20] Not a directory")


@pytest.mark.parametrize("argv", list(OUTPUT_COMMANDS.values()), ids=list(OUTPUT_COMMANDS))
def test_an_output_path_that_is_a_directory_is_refused_before_the_work(monkeypatch, tmp_path, argv):
    # The rename over a directory would fail only after the work, naming the temp file.
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran before the output path was checked")

    monkeypatch.setattr(cli, "run_algorithm1", no_descent)
    monkeypatch.setattr(cli, "descend", no_descent)
    path = tmp_path / "out"
    path.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv + ["-o", str(path)]) == 2
    assert err.getvalue() == f"error: [Errno 21] Is a directory: {str(path)!r}\n"
    assert list(tmp_path.rglob("*")) == [path]


@pytest.mark.parametrize("command", [*OUTPUT_COMMANDS, "verify"])
def test_a_negative_budget_is_a_usage_error(monkeypatch, tmp_path, command):
    # Refused by the parser, with its usage line, before any descent or
    # enumeration runs; a budget of 0 stays valid.
    def no_work(*args, **kwargs):
        raise AssertionError("a command ran with a negative budget")

    for name in ("run_algorithm1", "descend", "min_distance"):
        monkeypatch.setattr(cli, name, no_work)
    if command == "verify":
        argv = ["verify", str(tmp_path / "h.pchk"), "-d", "3"]
    else:
        argv = OUTPUT_COMMANDS[command] + ["-o", str(tmp_path / "out.txt")]
    code, out, err = main_exit(argv + ["--budget", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: gvgraph {command} ")
    assert err.endswith(f"\ngvgraph {command}: error: argument --budget: must be at least 0, got -1\n")
    assert cli._parser().commands[command].parse_args(argv[1:] + ["--budget", "0"]).budget == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "-q", "2", "-n", "7", "-d", "3"],
        ["bounds", "-q", "2", "-n", "7", "-d", "3", "--json"],
        ["spectrum", "-q", "3", "-n", "5", "-d", "3", "--level", "0"],
        ["spectrum", "-q", "3", "-n", "7", "-d", "4", "--level", "2"],
    ],
    ids=["bounds-csv", "bounds-json", "spectrum-level0", "spectrum-level2"],
)
def test_an_output_file_holds_the_bytes_stdout_would(tmp_path, argv):
    shown = subprocess.run(GVGRAPH + argv, capture_output=True)
    assert (shown.returncode, shown.stderr) == (0, b"") and shown.stdout
    path = tmp_path / "out.txt"
    written = subprocess.run(GVGRAPH + argv + ["-o", str(path)], capture_output=True)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert path.read_bytes() == shown.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "-q", "2", "-n", "4", "-d", "3", "--level", "-1"], "level must be nonnegative, got -1"),
        (["sweep", "-q", "2,x", "-n", "4", "-d", "2:3"], "expected a comma-separated integer list, got '2,x'"),
        (["sweep", "-q", "2", "-n", "1:2:3", "-d", "2:3"], "expected an inclusive range 'lo:hi' or a single integer, got '1:2:3'"),
        (["sweep", "-q", "2", "-n", "4", "-d", "x"], "expected an inclusive range 'lo:hi' or a single integer, got 'x'"),
    ],
    ids=["spectrum-negative-level", "sweep-q-list", "sweep-n-range", "sweep-d-range"],
)
def test_a_refused_argument_exits_2_and_writes_nothing(monkeypatch, tmp_path, argv, message):
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran for a refused argument")

    monkeypatch.setattr(cli, "run_algorithm1", no_descent)
    monkeypatch.setattr(cli, "descend", no_descent)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv + ["-o", str(tmp_path / "out.txt")]) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
