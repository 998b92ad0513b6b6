"""The three benchmark workloads: seeded inputs, the ops to run and their checks.

Each op is one call of the CLI entry point ``gvgraph.cli.main(argv)``.  A
workload builds its inputs from the seed alone, names an untimed warm-up op
on its smallest input, hands out the ops of each timed pass and checks every
op's result against an expectation that does not come from the run itself.

construct-large
    ``construct`` over a seed-shuffled pool of large cells, q in {2, 3, 5}.
    Nearly all the time goes to the dense spectrum (densify, argmin scans)
    and the descent's averaging, on both the q=2 XOR path and the q>2
    permutation path; no codeword is enumerated.  Expected: sha256 of the
    written pchk bytes and of the printed trace, recorded from the reference
    commit in ``expected/construct_large.json``.
verify-codes
    ``verify`` on seeded disguises of classical codes (codebook.py), some with
    ``-d`` the true distance (exit 0) and some with the true distance + 1
    (exit 1).  Time goes to pchk parsing, mod-q rank/kernel and codeword
    enumeration; there is no spectrum or descent work.  Expected: exit code,
    ``codewords: q^k`` and ``min_distance: d`` from coding theory.
sweep-small
    ``sweep --jobs 1`` over seeded sub-grids that tile a fixed set of small
    cells (q in {2, 3, 5, 7}, q^n <= 2*10^4), plus rows run with a small
    ``--budget`` so the ``skipped`` path runs.  Cells cost milliseconds, so
    closed-form bounds, descent bookkeeping on tiny tables, is_prime and the
    CLI's CSV and file writing share the time.  Expected: every CSV field
    but ``runtime_seconds``, recorded from the reference commit in
    ``expected/sweep_small.csv``.

Every pass runs the same amount of work: construct and verify repeat their
seeded op list, and sweep re-tiles the same cell set (each row's cut steps
from a seeded start with the pass number), so pass times and the mix of op
sizes over a run are comparable across seeds while the ops still vary.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from codebook import CODEBOOK, disguise, pchk_text

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Six cells, so the median op latency lies between the two middle cells,
# (5,8,3) and (3,11,4), which stand well apart from their neighbours in cost.
CONSTRUCT_POOL = [(2, 18, 4), (2, 20, 5), (3, 11, 4), (3, 12, 4), (5, 7, 3), (5, 8, 3)]

# Files per code in one verify pass.  The counts place the median op in the
# middle of the [11,6,5] ternary Golay files and the 90th percentile in the
# middle of the binary Golay files, away from a jump between code sizes.
VERIFY_MIX = {
    "hamming-7-4": 12,
    "ext-hamming-8-4": 12,
    "rm1-32-6": 12,
    "quinary-hamming-6-4": 12,
    "ternary-golay-11-6": 16,
    "ternary-golay-12-6": 12,
    "hamming-15-11": 12,
    "ext-hamming-16-11": 12,
    "golay-23-12": 10,
    "golay-24-12": 10,
}
VERIFY_ABOVE_DISTANCE = 4  # files per code verified against d + 1 (expect exit 1)

SWEEP_MAX_N = {2: 14, 3: 9, 5: 6, 7: 5}
SWEEP_MAX_D = 6
# Rows whose every cell exceeds the budget, so each is reported as skipped.
SWEEP_BUDGET = 20000
SWEEP_BUDGET_ROWS = {2: (15, 16), 3: (10,)}
SWEEP_IGNORED = ("runtime_seconds",)


@dataclass
class Op:
    argv: list[str]
    expect: object
    output: str | None = None


@dataclass
class Result:
    code: int | None
    stdout: str
    error: str | None = None


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{name}:{seed}")

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, result: Result) -> str | None:
        """None when the op's result matches its expectation, else the reason."""
        raise NotImplementedError


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ConstructLarge(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__("construct-large", seed, workdir)
        with open(EXPECTED_DIR / "construct_large.json", encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.cells = list(CONSTRUCT_POOL)
        self.rng.shuffle(self.cells)

    def _op(self, cell: tuple[int, int, int]) -> Op:
        q, n, d = cell
        out = str(self.workdir / f"construct-{q}-{n}-{d}.pchk")
        argv = ["construct", "-q", str(q), "-n", str(n), "-d", str(d), "-o", out]
        return Op(argv, self.expected[f"{q},{n},{d}"], out)

    def warmup_op(self) -> Op:
        return self._op(min(self.cells, key=lambda c: c[0] ** c[1]))

    def pass_ops(self, index: int) -> list[Op]:
        return [self._op(cell) for cell in self.cells]

    def check(self, op: Op, result: Result) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}, expected 0"
        with open(op.output, "rb") as handle:
            pchk = handle.read()
        os.unlink(op.output)
        if sha256_hex(pchk) != op.expect["pchk_sha256"]:
            return "pchk bytes differ from the recorded digest"
        if sha256_hex(result.stdout.encode("utf-8")) != op.expect["stdout_sha256"]:
            return "trace output differs from the recorded digest"
        return None


class VerifyCodes(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__("verify-codes", seed, workdir)
        self.ops: list[Op] = []
        for name, count in VERIFY_MIX.items():
            code = CODEBOOK[name]
            above = set(self.rng.sample(range(count), VERIFY_ABOVE_DISTANCE))
            for i in range(count):
                path = self.workdir / f"{name}-{i}.pchk"
                path.write_text(pchk_text(code.q, disguise(code, self.rng)), encoding="utf-8")
                d = code.d + 1 if i in above else code.d
                expect = {"code": 1 if i in above else 0, "codewords": code.size, "min_distance": code.d}
                self.ops.append(Op(["verify", str(path), "-d", str(d)], expect))
        self.rng.shuffle(self.ops)

    def warmup_op(self) -> Op:
        return min(self.ops, key=lambda op: op.expect["codewords"])

    def pass_ops(self, index: int) -> list[Op]:
        return self.ops

    def check(self, op: Op, result: Result) -> str | None:
        want = op.expect
        if result.code != want["code"]:
            return f"exit code {result.code}, expected {want['code']}"
        fields = dict(line.split(": ", 1) for line in result.stdout.splitlines() if ": " in line)
        for key in ("codewords", "min_distance"):
            if fields.get(key) != str(want[key]):
                return f"{key}: {fields.get(key)!r}, expected {want[key]}"
        return None


def sweep_rows() -> list[tuple[int, int, int | None]]:
    """(q, n, budget) of every row of the sweep cell set; a row holds d in 2..min(n+1, 6)."""
    rows = [(q, n, None) for q, n_max in SWEEP_MAX_N.items() for n in range(2, n_max + 1)]
    return rows + [(q, n, SWEEP_BUDGET) for q, lengths in SWEEP_BUDGET_ROWS.items() for n in lengths]


def sweep_cells() -> list[tuple[int, int, int, int | None]]:
    """Every (q, n, d, budget) cell one sweep pass covers."""
    return [(q, n, d, budget) for q, n, budget in sweep_rows() for d in range(2, min(n + 1, SWEEP_MAX_D) + 1)]


class SweepSmall(Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__("sweep-small", seed, workdir)
        with open(EXPECTED_DIR / "sweep_small.csv", encoding="utf-8", newline="") as handle:
            self.expected = {(r["q"], r["n"], r["d"]): r for r in csv.DictReader(handle)}
        self.cut_starts = [self.rng.randrange(SWEEP_MAX_D) for _ in sweep_rows()]

    def _op(self, index: int, q: int, n: int, d_lo: int, d_hi: int, budget: int | None) -> Op:
        out = str(self.workdir / f"sweep-{index}.csv")
        argv = ["sweep", "-q", str(q), "-n", str(n), "-d", f"{d_lo}:{d_hi}", "-o", out, "--jobs", "1"]
        if budget is not None:
            argv += ["--budget", str(budget)]
        cells = [(str(q), str(n), str(d)) for d in range(d_lo, d_hi + 1)]
        return Op(argv, [self.expected[c] for c in cells], out)

    def warmup_op(self) -> Op:
        return self._op(0, 2, 2, 2, 2, None)

    def pass_ops(self, index: int) -> list[Op]:
        """Split every row (q, n) of the cell set in two, cutting afresh each pass.

        A row's cut steps through all its distances, from a seeded start, so
        that over a run every seed times the same mix of op sizes, while the
        cells, and the number of ops carrying the CLI's fixed per-call cost,
        stay the same in every pass.  The order of the ops is seeded too.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        grids = []
        for (q, n, budget), start in zip(sweep_rows(), self.cut_starts):
            d_max = min(n + 1, SWEEP_MAX_D)
            cut = 3 + (start + index) % (d_max - 2)
            grids += [(q, n, 2, cut - 1, budget), (q, n, cut, d_max, budget)]
        rng.shuffle(grids)
        return [self._op(k, *grid) for k, grid in enumerate(grids)]

    def check(self, op: Op, result: Result) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}, expected 0"
        with open(op.output, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        os.unlink(op.output)
        if len(rows) != len(op.expect):
            return f"{len(rows)} rows, expected {len(op.expect)}"
        for got, want in zip(rows, op.expect):
            for key, value in want.items():
                if got.get(key) != value:
                    return f"cell ({want['q']},{want['n']},{want['d']}) {key}: {got.get(key)!r}, expected {value!r}"
            if set(got) - set(want) != set(SWEEP_IGNORED):
                return f"unexpected columns {sorted(set(got) - set(want))}"
        return None


WORKLOADS = {"construct-large": ConstructLarge, "verify-codes": VerifyCodes, "sweep-small": SweepSmall}
