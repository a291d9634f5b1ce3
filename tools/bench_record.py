"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

    python3 tools/bench_record.py [--root CHECKOUT] [--out FILE]

Runs ``perfbench/run.py`` of CHECKOUT (default: this repository) on every
workload at seed 0 for 20 seconds, once with ``--trace 0`` and once with
``--trace 1``, one run after another.  Seed and run length are fixed so that
consecutive records compare.  The record keeps each run's last stdout line
(the JSON result) and its ``env:`` line (nproc, Python, numpy, BLAS), plus
the checkout's git revision and whether tracked files differ from it.  It is
written to FILE, by default the next free ``BENCH_<n>.json`` at the root of
this repository.  Exits 1, writing nothing, when a run fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("calibrate", "study", "diagnose")
SEED = 0
SECONDS = 20.0


def next_record(root: Path) -> Path:
    n = 0
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True).stdout.strip()


def run_one(checkout: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", repr(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")), None)
    return {"workload": workload, "trace": trace, "env": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--out", type=Path, default=None, help="record file")
    args = parser.parse_args(argv)
    checkout = args.root.resolve()
    out = args.out or next_record(ROOT)
    revision = git(checkout, "rev-parse", "HEAD") or None
    # edited tracked files: the revision alone does not name the code that ran
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    runs = []
    try:
        for trace in (0, 1):
            for workload in WORKLOADS:
                runs.append(run_one(checkout, workload, trace))
                print(f"{workload} --trace {trace}: correct={runs[-1]['result']['correct']}",
                      flush=True)
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    env = runs[0]["env"] or {}
    record = {
        "revision": revision,
        "dirty": dirty,
        "seed": SEED,
        "seconds": SECONDS,
        "nproc": env.get("nproc"),
        "env": {k: v for k, v in env.items()
                if k not in ("workload", "seed", "seconds", "trace")},
        "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
