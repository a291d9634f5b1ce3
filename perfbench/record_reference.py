"""Record the reference outputs that the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Runs one round of each workload at ``workloads.DEFAULT_SEED`` and writes
``perfbench/reference.json``.  Rerun only when a change is meant to alter
these numbers; a speed-up must reproduce them as they are.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on the path first)


def main() -> int:
    reference = {"seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED)
        reference[name] = workload.combine([fn() for fn, _ in workload.units])
        print(f"{name}: recorded")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
