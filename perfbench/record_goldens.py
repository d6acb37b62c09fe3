"""Record the golden SHA-256 digests of every file each workload writes.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are the reference (the digests in
goldens.json were taken from the seed code). A change that is meant to keep
outputs byte-identical must never re-record them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import passrun
import workloads

GOLDEN_SEEDS = {"full": range(16), "tiny": range(4)}


def main() -> int:
    goldens: dict = {}
    workdir = Path(__file__).resolve().parent / "_work" / "record"
    try:
        for size, seeds in GOLDEN_SEEDS.items():
            for workload in workloads.WORKLOADS:
                for seed in seeds:
                    shutil.rmtree(workdir, ignore_errors=True)
                    record = passrun.run_pass(workload, seed, size, workdir)
                    failed = [name for name, ok in record["checks"].items()
                              if not ok]
                    if failed or None in record["digests"].values():
                        print(f"{size} {workload} seed {seed}: failed {failed}",
                              file=sys.stderr)
                        return 1
                    goldens.setdefault(size, {}).setdefault(workload, {})[
                        str(seed)] = record["digests"]
                    print(f"{size} {workload} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
