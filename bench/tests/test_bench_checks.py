"""Every op is checked: a wrong expectation or a raising op counts as failed."""

import copy

from run import Loop, load_program
from workloads import ConstructLarge, Op, SweepSmall, VerifyCodes


def _run(workload, ops):
    workload.pass_ops = lambda index: ops
    loop = Loop(load_program(), workload)
    loop.run_pass()
    return loop


def test_verify_corrupted_expectation_fails(tmp_path):
    workload = VerifyCodes(seed=3, workdir=tmp_path)
    ops = workload.ops[:4]
    assert _run(workload, ops).failures == []
    bad = copy.deepcopy(ops[0])
    bad.expect["min_distance"] += 1
    loop = _run(workload, [bad] + ops[1:])
    assert loop.attempted == 4 and len(loop.failures) == 1
    assert "min_distance" in loop.failures[0]


def test_construct_corrupted_digest_fails(tmp_path):
    workload = ConstructLarge(seed=3, workdir=tmp_path)
    good = workload.warmup_op()
    assert _run(workload, [good]).failures == []
    bad = workload.warmup_op()
    bad.expect = dict(bad.expect, pchk_sha256="0" * 64)
    loop = _run(workload, [bad])
    assert len(loop.failures) == 1 and "pchk" in loop.failures[0]


def test_sweep_corrupted_field_fails(tmp_path):
    workload = SweepSmall(seed=3, workdir=tmp_path)
    ops = workload.pass_ops(0)[:5]
    assert _run(workload, ops).failures == []
    bad = copy.deepcopy(ops[0])
    bad.expect[0]["gv"] = "1/7"
    loop = _run(workload, [bad] + ops[1:])
    assert len(loop.failures) == 1 and "gv" in loop.failures[0]


def test_sweep_pass_covers_every_cell_once(tmp_path):
    from workloads import sweep_cells

    workload = SweepSmall(seed=5, workdir=tmp_path)
    for index in range(3):
        covered = [tuple(row[k] for k in ("q", "n", "d")) for op in workload.pass_ops(index) for row in op.expect]
        assert sorted(covered) == sorted((str(q), str(n), str(d)) for q, n, d, _ in sweep_cells())


def test_raising_op_fails(tmp_path):
    workload = VerifyCodes(seed=3, workdir=tmp_path)
    missing = Op(["verify", str(tmp_path / "missing.pchk"), "-d", "3"], {"code": 0, "codewords": 16, "min_distance": 3})
    garbage = Op(["no-such-command"], {"code": 0, "codewords": 16, "min_distance": 3})
    loop = _run(workload, [missing, garbage])
    assert loop.attempted == 2 and len(loop.failures) == 2


def test_sweep_op_mix_is_the_same_for_every_seed(tmp_path):
    def mix(seed):
        workload = SweepSmall(seed=seed, workdir=tmp_path)
        # 12 passes take every row through all of its 1 to 4 cuts a whole number of times.
        return sorted(tuple(op.argv[1:7]) for index in range(12) for op in workload.pass_ops(index))

    assert mix(1) == mix(2) == mix(7)
