"""Benchmark of gvgraph's three products: construct, verify and sweep.

Run from the root of a source checkout:

    python3 bench/run.py --workload construct-large --seed 1 --seconds 30 --trace 0

One closed-loop client calls ``gvgraph.cli.main(argv)`` in this process, one
op at a time, and checks every op's output (workloads.py).  The ops of a
workload are grouped in passes that each do the same work; passes repeat
until ``--seconds`` have elapsed, at least once.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median over fresh interpreters, started between the passes,
                 of the time from spawn to the first op they could time:
                 importing gvgraph, generating inputs, loading expectations
                 and one untimed warm-up op
    wall_s       median wall time of a pass
    cpu_s        median user+sys time of a pass (getrusage of this process)
    peak_rss_mb  ru_maxrss of this process
    op_ms.p50    median latency over every op of every pass
    op_ms.p90    90th percentile of the same
    ok_ratio     ops whose output matched, over ops attempted

Every time is given at reference speed.  The 2-vCPU VM this was written on
runs Python code at two speeds, about 1.5x apart, in phases lasting from
seconds to minutes, so whole runs of the same code differ by the phase they
fall in.  A run therefore pins itself to one CPU and times a fixed
pure-Python loop, the reference, before and after every stretch of at least
``SEGMENT_S`` of ops (or the rest of the pass) and every set-up probe, and
scales each time measured in between by ``REF_S`` over the mean of the two
reference times: a time reads as it would when the reference loop takes
``REF_S``.  The raw times are printed too.  The reference runs no gvgraph
code, so a change to gvgraph moves the scaled times as it moves the raw
ones, while the machine's phase moves both the loop and gvgraph.

``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics per pass from the spans recorded by tracer.py, in raw seconds, plus
``trace.overhead_s``, the median traced minus the median untraced pass wall
time at reference speed.  The spans are written to
``.bench_run/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
checkout's ``src/gvgraph`` the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Result

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_SAMPLES = 21
# The reference loop: REF_ITERATIONS steps, best of REF_REPEATS timings.  On
# a 2-vCPU Xeon VM it took about 2.3 ms in the faster phase and 3.2 ms in the
# slower; REF_S is the former.
REF_ITERATIONS = 30000
REF_REPEATS = 3
REF_S = 0.0023
SEGMENT_S = 0.25
PROBE_TIMEOUT_S = 60
READY = "ready"


def load_program():
    """Import gvgraph.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "gvgraph" / "cli.py").is_file():
        raise FileNotFoundError(f"no gvgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gvgraph.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gvgraph":
        raise ImportError(f"gvgraph was imported from {cli.__file__}, not from {SRC}")
    return cli


def reference_seconds() -> float:
    """The time of a fixed pure-Python loop: how fast the machine runs Python now."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale(ref_before: float, ref_after: float) -> float:
    """The factor that brings a time measured between two references to reference speed."""
    return 2 * REF_S / (ref_before + ref_after)


def run_op(cli, op):
    """Call the CLI once with stdout and stderr captured; exceptions become results."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return Result(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Result(code, out.getvalue(), err.getvalue() or None)


def set_up(name: str, seed: int, workdir: Path):
    """Everything before the first timed op: program, inputs, expectations, warm-up."""
    cli = load_program()
    workload = WORKLOADS[name](seed, workdir)
    warm = workload.warmup_op()
    problem = workload.check(warm, run_op(cli, warm))
    if problem:
        raise RuntimeError(f"warm-up op {warm.argv} failed its check: {problem}")
    return cli, workload


def probe(name: str, seed: int) -> int:
    """A fresh interpreter's set-up, ending in one line of READY on stdout."""
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RUN_DIR))
    try:
        set_up(name, seed, workdir)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, from spawn to READY: raw and at reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--probe"]
    ref = reference_seconds()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=PROBE_TIMEOUT_S)
    if line != READY or code != 0:
        raise RuntimeError(f"set-up probe exited with status {code} before it was ready")
    return elapsed, elapsed * speed_scale(ref, reference_seconds())


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Timed passes over a workload's ops, with every op's output checked after its pass."""

    def __init__(self, cli, workload) -> None:
        self.cli = cli
        self.workload = workload
        self.passes = 0
        self.op_ms: list[float] = []  # every op's latency at reference speed
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, float]:
        """Run one pass; its wall and cpu time at reference speed.

        The ops are timed in segments of at least SEGMENT_S (or the rest of
        the pass), each scaled by the reference loop timed around it.
        """
        ops = self.workload.pass_ops(self.passes)
        self.passes += 1
        results, segment = [], []
        wall = cpu = raw_wall = 0.0
        gc.collect()
        ref = reference_seconds()
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        for index, op in enumerate(ops):
            start = time.perf_counter()
            results.append(run_op(self.cli, op))
            end = time.perf_counter()
            segment.append(end - start)
            if end - wall0 >= SEGMENT_S or index == len(ops) - 1:
                seg_cpu = cpu_seconds() - cpu0
                ref_after = reference_seconds()
                scale = speed_scale(ref, ref_after)
                raw_wall += end - wall0
                wall += (end - wall0) * scale
                cpu += seg_cpu * scale
                self.op_ms.extend(1000 * seconds * scale for seconds in segment)
                ref, segment = ref_after, []
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
        self.raw_walls.append(raw_wall)
        for op, result in zip(ops, results):
            self.attempted += 1
            try:
                problem = self.workload.check(op, result)
            except Exception as exc:  # a check that cannot read the output fails the op
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{' '.join(op.argv)}: {problem} ({result.error})")
        return wall, cpu


def end_to_end(loop: Loop, seconds: float, seed: int) -> dict[str, tuple[float, str]]:
    # Set-up samples are spread between the passes, so that they see the
    # same machine as the passes do.
    setup, walls, cpus = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < max(1, due):
            setup.append(setup_seconds(loop.workload.name, seed))
        wall, cpu = loop.run_pass()
        walls.append(wall)
        cpus.append(cpu)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(loop.workload.name, seed))
    print(f"setup raw (s): {' '.join(f'{raw:.4f}' for raw, _ in setup)}")
    print(f"setup at reference speed (s): {' '.join(f'{scaled:.4f}' for _, scaled in setup)}")
    print(f"pass wall raw (s): {' '.join(f'{w:.4f}' for w in loop.raw_walls)}")
    print(f"pass wall at reference speed (s): {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"op latency samples: {len(loop.op_ms)} ({loop.passes} passes)")
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms.p50": (statistics.median(loop.op_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(loop.op_ms, n=10, method="inclusive")[-1], "ms"),
        "ok_ratio": ((loop.attempted - len(loop.failures)) / loop.attempted, "ratio"),
    }


def per_layer(loop: Loop, seconds: float) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) > len(traced):
            tracer.install()
            try:
                traced.append(loop.run_pass()[0])
            finally:
                tracer.uninstall()
        else:
            plain.append(loop.run_pass()[0])
    tracer.dump(RUN_DIR / f"spans-{loop.workload.name}.jsonl")
    print(f"untraced pass wall at reference speed (s): {' '.join(f'{w:.4f}' for w in plain)}")
    print(f"traced pass wall at reference speed (s): {' '.join(f'{w:.4f}' for w in traced)}")
    print(f"spans: {len(tracer.spans)}")
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One CPU for the run and its set-up probes, which inherit it: the
    # machine's CPUs change speed independently, and the reference loop
    # must time the CPU the ops run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.probe:
            return probe(args.workload, args.seed)
        RUN_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
        try:
            cli, workload = set_up(args.workload, args.seed, workdir)
            loop = Loop(cli, workload)
            if args.trace:
                metrics = per_layer(loop, args.seconds)
            else:
                metrics = end_to_end(loop, args.seconds, args.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(loop.failures)
    print(f"fail_ratio: {failed / loop.attempted:.6f} ({failed} failed / {loop.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
