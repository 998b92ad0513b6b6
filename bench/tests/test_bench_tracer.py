"""Self time on nested spans, and tracing that leaves every output unchanged."""

import itertools
from pathlib import Path

import pytest

from run import load_program, run_op
from tracer import Tracer, self_times
from workloads import Op, sha256_hex


def test_self_time_on_nested_spans():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 9.0, 0],
        ["outer", 20.0, 21.0, -1],
    ]
    assert self_times(spans) == {"outer": 4.0, "inner": 6.0, "leaf": 1.0}


def test_wrapped_calls_record_parents_and_self_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("top", -1),
        ("mid", 0),
        ("leaf", 1),
        ("leaf", 0),
    ]
    # Each span reads the clock twice: leaf spans last 1 tick, mid 3, top 7.
    assert self_times(tracer.spans) == {"top": 3.0, "mid": 2.0, "leaf": 2.0}


def _outputs(cli, tmp_path: Path) -> list[str]:
    pchk = tmp_path / "code.pchk"
    construct = run_op(cli, Op(["construct", "-q", "3", "-n", "6", "-d", "3", "-o", str(pchk)], None))
    verify = run_op(cli, Op(["verify", str(pchk), "-d", "3"], None))
    sweep_csv = tmp_path / "sweep.csv"
    sweep = run_op(cli, Op(["sweep", "-q", "2", "-n", "6", "-d", "2:4", "-o", str(sweep_csv)], None))
    rows = [line.rsplit(",", 1)[0] for line in sweep_csv.read_text().splitlines()]
    return [
        sha256_hex(pchk.read_bytes()),
        sha256_hex(construct.stdout.encode()),
        verify.stdout,
        sha256_hex("\n".join(rows).encode()),
        str((construct.code, verify.code, sweep.code)),
    ]


def test_traced_outputs_equal_untraced(tmp_path):
    cli = load_program()
    plain = _outputs(cli, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _outputs(cli, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {rec[0] for rec in tracer.spans}
    for name in ("cli.main", "descent.run_algorithm1", "spectrum.scan", "codes.codewords", "modq.rank", "bounds.asymptotic_gv"):
        assert name in names
    assert tracer.counts["vectors.fqvector_created"] > 0
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.ops"] == (3, "count")
    words = int(plain[2].split("codewords: ")[1].split()[0])
    assert metrics["codes.words_enumerated"][0] == 2 * words  # verify enumerates twice


def test_uninstall_restores_every_original():
    cli = load_program()
    import gvgraph.codes as codes
    import gvgraph.spectrum as spectrum
    import gvgraph.vectors as vectors

    before = (cli.main, cli.read_pchk, codes.rank, spectrum.SpectrumTable.densify, vectors.FqVector.__post_init__)
    tracer = Tracer()
    tracer.install()
    assert cli.read_pchk is not before[1] and codes.rank is not before[2]
    tracer.uninstall()
    after = (cli.main, cli.read_pchk, codes.rank, spectrum.SpectrumTable.densify, vectors.FqVector.__post_init__)
    assert after == before
