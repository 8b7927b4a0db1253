"""One fresh benchmark process: set up a workload, then run its task batch.

Started by run.py with PYTHONPATH pointing at the package sources.  It
prints "ready" once set-up is done (imports, seeded inputs, one warm-up
call), so the parent can time set-up from process start.  In `setup` mode it
stops there; in `measure` mode it runs untraced batches for --seconds; in
`trace` mode it spends half the time untraced and half traced, measures the
CLI cold start, and writes the spans.  The last stdout line is a JSON
report.

Tasks run one at a time in a closed loop: the next task starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

import workloads
from tracer import SPAN_NAMES, Tracer, summarize

COLD_START_ROUNDS = 10


def run_batch(wl, batch: int, tracer=None) -> dict:
    """Run every task once, timing each; check the outputs after the clock stops."""
    n = len(wl.tasks)
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for i, task in enumerate(wl.tasks):
        span = tracer.task_span(batch * n + i) if tracer else nullcontext()
        ts = time.perf_counter()
        try:
            with span:
                out, err = task.run(), None
        except Exception as exc:  # a failing task is counted, not fatal
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - ts)
        outputs.append((out, err))
    wall = time.perf_counter() - t0
    failures = []
    for task, (out, err) in zip(wl.tasks, outputs):
        if err is None:
            try:
                err = task.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append({"task": task.name, "reason": err, "known_defect": task.known_defect})
    return {"wall": wall, "latencies": latencies, "failures": failures}


def run_for(wl, seconds: float, first_batch: int, tracer=None) -> list[dict]:
    """Whole batches until the next one would overrun `seconds`; at least one."""
    batches = []
    t0 = time.perf_counter()
    while True:
        batches.append(run_batch(wl, first_batch + len(batches), tracer))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(batches) > seconds:
            return batches


def cold_start() -> dict:
    """Medians of fresh interpreter, numpy import, dehnscope import and one CLI example."""
    probes = {
        "interpreter": ["-c", "pass"],
        "numpy": ["-c", "import numpy"],
        "dehnscope": ["-c", "import dehnscope.cli"],
        "invocation": ["-m", "dehnscope.cli", *workloads.CLI_EXAMPLES[0]],
    }
    times = {k: [] for k in probes}
    for _ in range(COLD_START_ROUNDS):
        for key, args in probes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *args], cwd=workloads.ROOT,
                           stdout=subprocess.DEVNULL, check=True, timeout=60)
            times[key].append((time.perf_counter() - t0) * 1000.0)
    med = {k: statistics.median(v) for k, v in times.items()}
    return {
        "cli.interpreter_ms": med["interpreter"],
        "cli.numpy_import_ms": med["numpy"] - med["interpreter"],
        "cli.dehnscope_import_ms": med["dehnscope"] - med["numpy"],
        "cli.compute_ms": med["invocation"] - med["dehnscope"],
    }


def per_layer(tracer: Tracer, n_tasks: int) -> dict:
    spans = tracer.arrays()
    summary = summarize(spans, n_tasks)
    out = {}
    for name in SPAN_NAMES:
        got = summary.get(name, {"calls": 0, "self_ms": 0.0})
        out[f"{name}.calls"] = got["calls"]
        out[f"{name}.self_ms"] = got["self_ms"]
    solves = np.array(tracer.outcomes["filling_solver.solve_on_path"], dtype=float).reshape(-1, 2)
    completions = np.array(tracer.outcomes["torus_end.classify_completion"], dtype=float).reshape(-1, 1)
    # ratios over every traced call; 0 when the workload makes no such call
    out["filling_solver.solve_on_path.newton_iters_mean"] = float(solves[:, 0].mean()) if solves.size else 0.0
    out["filling_solver.solve_on_path.converged_frac"] = float(solves[:, 1].mean()) if solves.size else 0.0
    out["torus_end.classify_completion.undetermined_frac"] = float(completions.mean()) if completions.size else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--spans", help="where trace mode writes its spans (.npz)")
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed)
    try:
        wl.warmup.run()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        report = {"tasks": [t.name for t in wl.tasks], "numpy": np.__version__}
        if args.mode == "measure":
            report["batches"] = run_for(wl, args.seconds, 0)
        else:
            untraced = run_for(wl, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install()
            wl.on_trace(tracer)
            traced = run_for(wl, args.seconds / 2, len(untraced), tracer)
            report["batches"] = untraced + traced
            layers = per_layer(tracer, len(wl.tasks))
            layers["trace.overhead_frac"] = (
                statistics.median(b["wall"] for b in traced) / statistics.median(b["wall"] for b in untraced) - 1.0
            )
            layers.update(cold_start())
            report["per_layer"] = layers
            tracer.save(args.spans)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_examples" else resource.RUSAGE_SELF
        report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        print(json.dumps(report), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        wl.cleanup()


if __name__ == "__main__":
    sys.exit(main())
