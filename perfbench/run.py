"""The hactest benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload {calibrate,study,diagnose} --seed N --seconds S --trace {0,1}

Every workload runs in fresh single-threaded processes (BLAS pinned to one
thread), started one after another from this process, with the library
taken from this checkout's ``src``.

``--trace 0`` measures set-up in several fresh processes and runs the
workload for S seconds untraced: it reports the end-to-end metrics, each
time normalized by a reference probe sampled while it runs (see probe.py).
``--trace 1`` runs the workload untraced for S/4 seconds, then twice traced
for S/4 seconds each: it reports the per-layer metrics of the first traced
process, the tracing overhead, and checks that every count repeats exactly
in the second.  Both modes check every output (see workloads.py), reproduce
the regression pin once, print every metric with its unit, and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  A full record,
with the environment, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import BARE_START, normalized_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("calibrate", "study", "diagnose")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-up-only processes per run, besides the measuring one
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 30.0
#: time allowed after the timed section (checks, pin, CLI leg, span output)
TAIL_TIMEOUT_S = 60.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_ms_p50", "ms"), ("op_ms_p95", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start(cmd: list, what: str, timeout: float):
    """Run cmd; return (seconds until it printed READY, the rest of its output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        first = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise BenchError(f"{what} did not get ready")
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    return ready_s, rest


def spawn(workload: str, seed: int, seconds: float, mode: str, *extra: str):
    """Run one worker; return (its set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds), mode, *extra]
    what = f"{mode} worker for {workload}"
    setup_s, rest = start(cmd, what, seconds + TAIL_TIMEOUT_S)
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no result")
    return setup_s, json.loads(lines[-1])


def spawn_paired(workload: str, seed: int, seconds: float, mode: str, *extra: str):
    """spawn() right after a bare interpreter start; (raw, normalized set-up, result)."""
    bare_s, _ = start([sys.executable, "-c", BARE_START], "bare interpreter start", SETUP_TIMEOUT_S)
    setup_s, result = spawn(workload, seed, seconds, mode, *extra)
    return setup_s, normalized_start(setup_s, bare_s), result


def _checks(*results) -> tuple[int, int, list]:
    attempted = sum(r["checks"]["attempted"] for r in results)
    failed = sum(r["checks"]["failed"] for r in results)
    return attempted, failed, [m for r in results for m in r["checks"]["failures"]]


def end_to_end(workload: str, seed: int, seconds: float):
    setups = [spawn_paired(workload, seed, seconds, "setup")[:2] for _ in range(SETUP_PROBES)]
    raw_setup, setup_s, result = spawn_paired(workload, seed, seconds, "run")
    setups.append((raw_setup, setup_s))
    t = result["timing"]
    if t is None:
        raise BenchError(f"every round of {workload} failed")
    values = {"setup_s": statistics.median(norm for _, norm in setups), "wall_s": t["wall_s"],
              "ops_per_s": t["ops_per_s"], "op_ms_p50": t["op_ms_p50"],
              "op_ms_p95": t["op_ms_p95"], "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes = [f"set-up samples: {len(setups)} fresh processes, median reported; raw median "
             f"{statistics.median(raw for raw, _ in setups):.6g} s",
             f"rounds: {t['rounds']}, latency samples: {t['latency_samples']} "
             f"(median of {t['rounds']} repeats each), ops per round: {t['ops_per_round']}",
             f"raw (contended) wall_s {t['raw_wall_s']:.6g} s, mean_ops_per_s "
             f"{t['mean_ops_per_s']:.6g} 1/s, {t['probes']} probes, median {t['probe_ms_median']:.4g} ms",
             f"regression pin rates: {result['pin']}"]
    return metrics, _checks(result), notes, {"runs": [result], "setup_samples": setups}


def traced(workload: str, seed: int, seconds: float):
    import hooks

    quarter = seconds / 4.0
    _, base = spawn(workload, seed, quarter, "run")
    OUT.mkdir(exist_ok=True)
    runs = [spawn(workload, seed, quarter, "trace", "--spans", str(OUT / f"spans-{workload}-{tag}.csv"))[1]
            for tag in ("a", "b")]
    first, second = runs
    attempted, failed, failures = _checks(base, *runs)
    metrics = {name: tuple(v) for name, v in first["layers"].items()}
    absent = dict(first["absent"])
    cli = first.get("cli", {"absent": ["no successful round"]})
    if "value" in cli:
        metrics[hooks.CLI_METRIC] = (cli["value"], "ms")
    else:
        absent[hooks.CLI_METRIC] = cli["absent"]
    if base["timing"] and first["timing"]:
        metrics[hooks.OVERHEAD_METRIC] = (first["timing"]["wall_s"] / base["timing"]["wall_s"], "ratio")
    for name, (unit, _, _) in hooks.LAYER_METRICS.items():
        if unit in ("count", "ratio") and name in first["layers"]:
            attempted += 1
            again = second["layers"].get(name)
            if again != first["layers"][name]:
                failed += 1
                failures.append(f"{name} read {first['layers'][name][0]!r} then "
                                f"{again and again[0]!r} in two traced runs")
    ordered = {name: metrics[name] for name in (*hooks.LAYER_METRICS, hooks.CLI_METRIC,
                                                hooks.OVERHEAD_METRIC) if name in metrics}
    notes = [f"traced rounds: {first['timing'] and first['timing']['rounds']}, "
             f"spans: {first['spans']}, missing hooks: {first['missing_hooks'] or 'none'}",
             f"layer times are raw busy time; probe median in the traced process "
             f"{first['timing'] and first['timing']['probe_ms_median']:.4g} ms",
             *(f"absent: {name} (missing: {', '.join(why)})" for name, why in absent.items()),
             f"regression pin rates: {base['pin']}"]
    return ordered, (attempted, failed, failures), notes, {"runs": [base, *runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        run = traced if args.trace else end_to_end
        metrics, (attempted, failed, failures), notes, record = run(args.workload, args.seed, args.seconds)
    except (BenchError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **record["runs"][0]["env"]}
    print(f"hactest benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} checks failed)")
    for line in notes + failures:
        print(f"  {line}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
                    "failures": failures, **record}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
