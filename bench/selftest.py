"""Tests of the benchmark itself: its correctness gate, its trace and its
metric names. They run on small inputs in a few seconds:

    python3 -m pytest -q bench/selftest.py
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from clineshoot import integrator, shooting  # noqa: E402
from clineshoot.integrator import IntegratorConfig  # noqa: E402
from tracing import crosscheck, layer_counts, steps_per_march, tracing  # noqa: E402


def _find_payload(cs):
    return {"clines": [{"c": c} for c in cs], "rejected": [{"c": 0.00216}], "failures": []}


def test_find_gate_accepts_the_expected_result():
    payload = _find_payload(workloads.FindProp2.EXPECTED_C)
    assert workloads.check_find(0, payload, workloads.FindProp2.FILES) == []


@pytest.mark.parametrize("index", range(3))
def test_find_gate_fails_a_c_moved_by_1e7(index):
    cs = list(workloads.FindProp2.EXPECTED_C)
    cs[index] += 1e-7
    problems = workloads.check_find(0, _find_payload(cs), workloads.FindProp2.FILES)
    assert len(problems) == 1 and "expected" in problems[0]


def test_find_gate_fails_a_lost_bracket_and_a_bad_exit_code():
    payload = _find_payload(workloads.FindProp2.EXPECTED_C)
    payload["failures"] = [{"r": 0.5}]
    assert len(workloads.check_find(4, payload, workloads.FindProp2.FILES)) == 2


def test_gamma_gate_counts_sign_changes():
    rows = ["r,u_end,v_end,status"] + [f"{i / 10},0.5,{v},ok"
                                       for i, v in enumerate([0, 1, -1, 1, -1, 0])]
    text = "# manifest\n" + "\n".join(rows) + "\n"
    assert workloads.check_gamma(0, text, 6) == []
    flipped = text.replace("0.3,0.5,1,ok", "0.3,0.5,-1,ok")
    assert workloads.check_gamma(0, flipped, 6) == ["1 interior sign changes, expected 3"]


def _small_search():
    """A full cline search small enough for a test: 101 RK4 steps a march."""
    p = workloads.GammaDense().problem
    cfg = IntegratorConfig(target_step=1e-2)
    result = shooting.find_all_clines(p, cfg, resolution=101)
    assert result.brackets
    return p, cfg


def test_trace_of_a_search_is_complete():
    p, cfg = _small_search()
    with tracing() as tracer:
        shooting.find_all_clines(p, cfg, resolution=101)
    assert crosscheck(tracer) == []
    counts = layer_counts(tracer)
    steps = steps_per_march(p, cfg)
    assert steps == 101
    assert counts["integrator.poincare_map.steps"] == counts["integrator.poincare_map.calls"] * steps
    assert counts["integrator.column_steps"] == 101 * steps
    assert counts["nonlinearity.scalar_calls"] == 4 * counts["integrator.scalar_steps"]
    assert counts["shooting.refine_iterations"] == counts["integrator.poincare_map.calls"] > 0


@pytest.mark.parametrize("name", ["poincare_map", "integrate", "sweep_terminals"])
def test_crosscheck_catches_an_unpatched_wrapper(name):
    p, cfg = _small_search()
    original = getattr(integrator, name)
    with tracing() as tracer:
        setattr(shooting, name, original)  # as if the wrapper had missed this import
        shooting.find_all_clines(p, cfg, resolution=101)
    assert getattr(shooting, name) is original
    assert crosscheck(tracer)


def test_reference_takes_its_samples_out_and_restores_the_handler():
    ref = run.Reference(100, 10, 501, idle=1e-3)
    handler = signal.getsignal(signal.SIGALRM)
    result, scaled = ref.time(lambda: time.sleep(0.6) or 7)
    assert result == 7
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0.59 < ref.walls[0] < 0.65
    assert scaled == pytest.approx(ref.walls[0] * 1e-3 / ref.refs[0])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 13)]) == (2.0, 100.0 * 2 / 12, 10)
    assert run.tail([float(i) for i in range(1000)])[2] == 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == metrics
    for name in {**run.END_TO_END, **run.PER_LAYER}:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "find-prop2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
