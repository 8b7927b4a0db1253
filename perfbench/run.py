"""dehnscope benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from anywhere; the package is loaded from `src/` next to this directory
(no install, no network).  Each workload runs in fresh Python processes, one
task at a time.  With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a separate
traced run and writes its spans under perfbench/out/.  The line before it
holds the run context, including every failing task by name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pointwise_sweeps", "filling_map", "cli_examples")
SETUP_SAMPLES = 7  # odd: half before the measured process, half after, plus its own
TAIL_BEYOND = 10
WORKER_TIMEOUT = 170


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND tasks beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} tasks, got {n}")
    return n - TAIL_BEYOND


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, seconds: float, mode: str, spans: Path | None = None):
    """Start a fresh worker; return (set-up seconds from process start, final report or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def tally(report: dict) -> dict:
    """Attempts, unexpected failures and known-defect failures over every batch."""
    n = len(report["tasks"])
    attempted = n * len(report["batches"])
    failures = [f for b in report["batches"] for f in b["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    known = [f for f in failures if f["known_defect"]]
    first = {}
    for f in failures:
        first.setdefault(f["task"], f)
    return {
        "attempted": attempted,
        "failed": len(unexpected),
        "failed_frac": len(failures) / attempted,
        "failing_tasks": [
            {"task": f["task"], "known_defect": f["known_defect"], "reason": f["reason"]} for f in first.values()
        ],
        "known_defect_failures": len(known),
    }


def end_to_end(report: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    n = len(report["tasks"])
    batches = report["batches"]
    # a task's latency is its mean over the batches: short tasks land on the fast or the slow
    # side of a machine whose speed flips within seconds, and a median would pick one side
    per_task = sorted(statistics.fmean(col) for col in zip(*(b["latencies"] for b in batches)))
    rank = tail_rank(n)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(b["wall"] for b in batches), "s"),
        "task_p50_ms": (statistics.median(per_task) * 1000.0, "ms"),
        "task_tail_ms": (per_task[rank - 1] * 1000.0, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    context = {
        "tasks": n,
        "batches": len(batches),
        "task_latency": "mean over batches per task",
        "task_tail_percentile": round(100.0 * rank / n, 2),
        "tasks_beyond_tail": n - rank,
        "setup_samples": len(setup_samples),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, context


LAYER_UNITS = {"calls": "count", "self_ms": "ms"}


def layer_metrics(report: dict) -> dict:
    out = {}
    for name, value in report["per_layer"].items():
        suffix = name.rsplit(".", 1)[1]
        unit = LAYER_UNITS.get(suffix, "ms" if suffix.endswith("_ms") else "ratio")
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload}-seed{seed}.npz"
        _, report = spawn(workload, seed, seconds, "trace", spans)
        metrics, context = layer_metrics(report), {"spans": str(spans.relative_to(ROOT))}
    else:
        # set-up samples straddle the measured process, so they see the machine over the whole run
        before = [spawn(workload, seed, seconds, "setup")[0] for _ in range(SETUP_SAMPLES // 2)]
        setup_s, report = spawn(workload, seed, seconds, "measure")
        after = [spawn(workload, seed, seconds, "setup")[0] for _ in range(SETUP_SAMPLES // 2)]
        metrics, context = end_to_end(report, before + [setup_s] + after)
    counts = tally(report)
    context.update({
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": report["numpy"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "failed_frac": counts["failed_frac"],
        "known_defect_failures": counts["known_defect_failures"],
        "failing_tasks": counts["failing_tasks"],
    })
    return {"context": context, "metrics": metrics, "attempted": counts["attempted"], "failed": counts["failed"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dehnscope" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'dehnscope'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for f in res["context"]["failing_tasks"]:
            label = "known defect" if f["known_defect"] else "FAILED"
            print(f"{name}: {label}: {f['task']}: {f['reason']}")
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        ctx = res["context"]
        print(f"{name}: failed_frac = {ctx['failed_frac']:.6g} ratio "
              f"({ctx['known_defect_failures']} known-defect and {ctx['failed']} other failures "
              f"in {ctx['attempted']} task runs)")
        print(json.dumps({"context": res["context"]}))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
