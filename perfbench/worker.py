"""Run one workload in one fresh process and report it as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS {setup,run,trace} [--spans PATH]

run.py starts this with BLAS pinned to one thread and ``src`` on
PYTHONPATH.  The worker builds the workload's inputs, prints ``READY`` (the
parent times set-up up to that line), then repeats the workload's round
until SECONDS have passed, with probe.py's sampler running, and prints one
JSON object as its last line.
``setup`` stops after READY; ``trace`` wraps the library's module
boundaries first and reports per-layer numbers; ``run`` reproduces the
regression pin after the timed section.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from probe import Sampler, probe, thread_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: rounds per measuring process at the least; a traced process needs one
MIN_ROUNDS = 2


def _import_library():
    import hactest

    where = Path(hactest.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"hactest imported from {where}, not from this checkout's src/")
    return hactest


def run_rounds(workload, seconds: float, min_rounds: int):
    """Repeat the round until ``seconds`` have passed (at least ``min_rounds`` times).

    Returns per round its units' (normalized s, raw s, ops), or None for a
    round that raised; the rounds' outputs; and the sampler.
    """
    rounds, outputs = [], []
    with Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            spans, results = [], []
            try:
                for fn, ops in workload.units:
                    t0 = time.perf_counter()
                    results.append(fn())
                    spans.append((t0, time.perf_counter(), ops))
                out = workload.combine(results)
            except Exception:  # counted as failed checks; the run goes on
                if None not in outputs:
                    traceback.print_exc(file=sys.stderr)
                spans, out = None, None
            rounds.append(spans)
            outputs.append(out)
    timed = [None if spans is None else
             [(sampler.normalized(t0, t1), sampler.raw(t0, t1), ops) for t0, t1, ops in spans]
             for spans in rounds]
    return timed, outputs, sampler


def timing(rounds, sampler) -> dict | None:
    """Per separately timed unit, its median normalized time over the rounds.

    A unit is one library call (calibrate, study) or one design (diagnose);
    every round repeats identical work.  Everything else follows from the
    per-unit medians; the raw (contended) figures are kept for information.
    """
    done = [r for r in rounds if r is not None]
    if not done:
        return None
    units = range(len(done[0]))
    typical = [statistics.median(r[k][0] for r in done) for k in units]
    raw = [statistics.median(r[k][1] for r in done) for k in units]
    ops = [n for _, _, n in done[0]]
    wall = sum(typical)
    if all(n == 1 for n in ops):
        latency_ms = [1e3 * t for t in typical]
    else:  # ops inside a library call cannot be timed one by one from outside
        latency_ms = [1e3 * wall / sum(ops)]
    p95 = statistics.quantiles(latency_ms, n=20)[18] if len(latency_ms) > 1 else latency_ms[0]
    total_s = sum(t for r in done for _, t, _ in r)
    return {
        "wall_s": wall,
        "ops_per_s": sum(ops) / wall,
        "op_ms_p50": statistics.median(latency_ms),
        "op_ms_p95": p95,
        "rounds": len(done),
        "latency_samples": len(latency_ms),
        "ops_per_round": sum(ops),
        "raw_wall_s": sum(raw),
        "probes": len(sampler.probes),
        "probe_ms_median": 1e3 * statistics.median(sampler.probes),
        "mean_ops_per_s": len(done) * sum(ops) / total_s,
    }


def environment(hactest) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))},
        "hactest": str(Path(hactest.__file__).resolve().parent.relative_to(ROOT)),
    }


def traced_cli(tracer, hooks, calls, checks) -> dict:
    """Run ``hactest diagnose --json`` in-process for each call; the CLI's own time."""
    import hactest.cli as cli
    from tracer import summarize

    first = len(tracer.names)
    tracer.install([hooks.CLI_HOOK])
    for args, want in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(args, standalone_mode=False)
            verdict = json.loads(buf.getvalue())["verdict"]
        except (Exception, SystemExit) as exc:
            verdict = f"{type(exc).__name__}: {exc}"
        checks.check(verdict == want, f"cli diagnose: verdict {verdict!r}, library {want!r}")
    row = summarize(tracer, first).get("cli.main")
    if row is None or "hactest.cli.main" in tracer.missing:
        return {"absent": ["hactest.cli.main"]}
    return {"value": 1e3 * row["self"] / row["count"], "calls": row["count"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    threads_at_start = thread_count()
    hactest = _import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    probe()  # the first call in a process pays numpy's one-time dispatch costs

    tracer = hooks = None
    if args.mode == "trace":
        import hooks
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(hooks.HOOKS, hooks.PROXIES)

    rounds, outputs, sampler = run_rounds(
        workload, args.seconds, 1 if args.mode == "trace" else MIN_ROUNDS)
    result = {"timing": timing(rounds, sampler),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    checks = workloads.Checks()
    reference = json.loads((HERE / "reference.json").read_text())
    workloads.check_outputs(workload, args.seed, outputs, reference, checks)
    checks.check(max(sampler.threads) <= threads_at_start,
                 f"{max(sampler.threads)} threads ran beside a probe ({threads_at_start} before hactest "
                 "was imported): the workloads must stay single-threaded for the normalization to hold")

    if tracer is not None:
        from tracer import summarize

        workload_spans = len(tracer.names)
        ops = sum(n for _, n in workload.units) * sum(r is not None for r in rounds)
        values, absent = hooks.layer_metrics(
            summarize(tracer, 0, workload_spans), tracer.counts, ops, tracer.missing)
        first_ok = next((o for o in outputs if o is not None), None)
        if first_ok is not None:
            result["cli"] = traced_cli(tracer, hooks, workload.cli_calls(first_ok), checks)
        tracer.uninstall()
        result.update(layers=values, absent=absent, missing_hooks=tracer.missing,
                      spans=len(tracer.names))
        if args.spans:
            tracer.write(args.spans)
    if args.mode == "run":
        result["pin"] = workloads.regression_pin(checks)
    result["checks"] = checks.as_dict()
    result["env"] = environment(hactest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
