"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import SPAN_NAMES, self_times


def _inputs(name, seed):
    wl = workloads.build(name, seed)
    wl.cleanup()
    return repr(wl.inputs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3) != _inputs(name, 4)


def perturb(x):
    """Nudge the first number, flag or string reachable from x."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    if isinstance(x, (float, complex)):
        return x * (1 + 1e-3) + 1e-3
    if isinstance(x, str):
        return x + "?"
    if isinstance(x, (list, tuple)) and x:
        return type(x)([perturb(x[0]), *x[1:]])
    raise TypeError(f"cannot perturb {type(x).__name__}")


NUMBER = re.compile(r"(?<![\w.])-?\d+(\.\d+)?([eE][-+]?\d+)?")


def perturb_stdout(text):
    """Scale every printed number by 1.01 and shift it by 0.01 (integers: +1); else rename the first value."""
    def nudge(m):
        tok = m.group(0)
        return str(int(tok) + 1) if m.group(1) is None and m.group(2) is None else repr(float(tok) * 1.01 + 0.01)

    if NUMBER.search(text) is None:
        return re.sub(r'(?<=: ")\w+', lambda v: v.group(0) + "x", text, count=1)
    return NUMBER.sub(nudge, text)


def _caught(task, out):
    try:
        return task.check(out) is not None
    except Exception:  # the worker counts a raising check as a failure too
        return True


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_pass_outputs_and_catch_perturbed_ones(name):
    wl = workloads.build(name, 5)
    try:
        for task in wl.tasks:
            out = task.run()
            if task.known_defect:
                continue
            assert task.check(out) is None, task.name
            assert _caught(task, perturb(out)), task.name
            if name == "cli_examples":
                assert _caught(task, (out[0], perturb_stdout(out[1]))), task.name
    finally:
        wl.cleanup()


def test_known_defects_are_the_pole_locus_tasks():
    names = [t.name for w in workloads.WORKLOADS for t in workloads.build(w, 0).tasks if t.known_defect]
    assert names and all("2pi*i" in n or n.endswith("/(1,0)") for n in names)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_task_names_are_unique_and_ten_tasks_lie_beyond_the_tail(name):
    wl = workloads.build(name, 0)
    wl.cleanup()
    names = [t.name for t in wl.tasks]
    assert len(set(names)) == len(names)
    assert len(names) - run.tail_rank(len(names)) >= 10


def test_traced_self_times_sum_to_span_totals(tmp_path):
    spans_path = tmp_path / "spans.npz"
    _, report = run.spawn("filling_map", 0, 1, "trace", spans_path)
    layers = report["per_layer"]
    for name in SPAN_NAMES:
        assert f"{name}.calls" in layers and f"{name}.self_ms" in layers
    assert layers["cochain.h1_dimension.calls"] == len([t for t in report["tasks"] if t.startswith("cochain/")])
    assert layers["filling_solver.solve_on_path.converged_frac"] == 1.0
    with np.load(spans_path) as data:
        spans = {k: data[k] for k in ("names", "name", "start", "end", "parent", "task")}
    dur = spans["end"] - spans["start"]
    roots = spans["parent"] < 0
    assert roots.sum() == len(report["tasks"])  # one traced batch, one root span per task
    assert np.isclose(self_times(spans).sum(), dur[roots].sum(), rtol=1e-9)
    inner = ~roots
    parent = spans["parent"][inner]
    assert np.all(spans["start"][inner] >= spans["start"][parent])
    assert np.all(spans["end"][inner] <= spans["end"][parent])


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "filling_map", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") and "correct" in json.loads(line) for line in proc.stdout.splitlines())


def test_tube_oracle_keeps_precision_on_short_curves():
    # seed 269791875 draws a cross-section of length 0.035, where 1 + (cosh d - 1) rounded each chord
    cases = [spec for kind, spec, _ in workloads.cli_inputs(np.random.default_rng(269791875))["cases"]
             if kind == "crosssection"]
    for s in cases:
        ell = s["a"] * (s["x"] + s["b"] * s["y"])
        closed = np.hypot(ell.real * np.cosh(s["eps"]), ell.imag * np.sinh(s["eps"]))
        assert abs(workloads.orc.tube_length(s["a"], s["b"], s["x"], s["y"], s["eps"]) - closed) <= 1e-7 * closed


def test_fill_oracle_compares_coordinates_up_to_sign():
    oracle = workloads._oracle_fill({"p": 0, "q": 1})
    completion = {"kind": "smooth", "p": 0, "q": 1, "angle": 2 * np.pi}
    for x, y, ok in ((0.0, 1.0, True), (1.1e-16, -1.0, True), (1.1e-16, -1.001, False)):
        d = {"coordinates": {"type": "finite", "x": x, "y": y}, "completion": completion}
        assert (oracle(d) is None) == ok


def test_path_solves_stay_in_the_disc():
    # Gaussian coefficients let seed 1332 draw a path whose (0,1) solution lay outside the disc
    for seed in range(1300, 1400):
        for spec in workloads.filling_inputs(np.random.default_rng(seed))["paths"]:
            path = workloads._make_path(spec)
            for p, q in workloads.TARGETS:
                assert workloads.fs.solve_on_path(path, p, q, 0j).converged
