"""Record the expected outputs of construct-large and sweep-small.

    python3 bench/make_expected.py

Runs gvgraph from this checkout's ``src`` once per cell and rewrites
``bench/expected/construct_large.json`` (sha256 of each written pchk file and
of the printed trace) and ``bench/expected/sweep_small.csv`` (every sweep
field except ``runtime_seconds``).  The files in the repository were recorded
from the commit that introduced the benchmark; gvgraph promises
byte-identical construct output and unchanged bound reports, so they should
only ever be re-recorded on purpose.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

from run import load_program, run_op
from workloads import (
    CONSTRUCT_POOL,
    EXPECTED_DIR,
    SWEEP_IGNORED,
    Op,
    sha256_hex,
    sweep_cells,
)


def main() -> int:
    cli = load_program()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        digests = {}
        for q, n, d in CONSTRUCT_POOL:
            result = run_op(cli, Op(["construct", "-q", str(q), "-n", str(n), "-d", str(d), "-o", str(out)], None))
            if result.code != 0:
                raise RuntimeError(f"construct ({q},{n},{d}) failed: {result}")
            digests[f"{q},{n},{d}"] = {
                "pchk_sha256": sha256_hex(out.read_bytes()),
                "stdout_sha256": sha256_hex(result.stdout.encode("utf-8")),
            }
        rows = []
        for q, n, d, budget in sweep_cells():
            argv = ["sweep", "-q", str(q), "-n", str(n), "-d", str(d), "-o", str(out), "--jobs", "1"]
            if budget is not None:
                argv += ["--budget", str(budget)]
            result = run_op(cli, Op(argv, None))
            if result.code != 0:
                raise RuntimeError(f"sweep ({q},{n},{d}) failed: {result}")
            with open(out, encoding="utf-8", newline="") as handle:
                rows += list(csv.DictReader(handle))
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / "construct_large.json", "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2)
        handle.write("\n")
    fields = [k for k in rows[0] if k not in SWEEP_IGNORED]
    with open(EXPECTED_DIR / "sweep_small.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(digests)} construct cells, {len(rows)} sweep cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
