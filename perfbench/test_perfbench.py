"""Tests of the benchmark itself: tracer, arithmetic, classifier, draws.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, check, workloads  # noqa: E402
from perfbench.record_reference import record_cases  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    RUN_TARGETS,
    Span,
    Target,
    Tracer,
    layer_self_seconds,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    GRID_FAMILIES,
    GRID_N,
    GRID_NOISE,
    SHAW_BETA_SEEDS,
    WORKLOADS,
    case_key,
    grid,
    single,
    sweep_draw,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _bindings():
    return {
        (t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
        for t in RUN_TARGETS
    }


def test_tracer_wraps_and_restores_every_name():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            during = _bindings()
            assert all(during[k] is not before[k] for k in before)
            assert all(during[k].__wrapped__ is before[k] for k in before)
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_parent_links_and_self_time_arithmetic(monkeypatch):
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        mod.leaf()
        mod.leaf()

    def outer():
        clock.now += 3.0
        mod.inner()
        clock.now += 0.5

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    targets = [
        Target("fake_layers", "outer", "top"),
        Target("fake_layers", "inner", "mid"),
        Target("fake_layers", "leaf", "mid"),
    ]
    tracer = Tracer(targets, clock=clock)
    with tracer:
        tracer.run_id = 7
        mod.outer()
    names = [s.name for s in tracer.spans]
    assert names == ["fake_layers.outer", "fake_layers.inner", "fake_layers.leaf", "fake_layers.leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert {s.run_id for s in tracer.spans} == {7}
    assert [s.seconds for s in tracer.spans] == [8.5, 5.0, 2.0, 2.0]
    assert self_times(tracer.spans) == [3.5, 1.0, 2.0, 2.0]
    # A layer's nested spans add up to its whole time; other layers' do not.
    assert layer_self_seconds(tracer.spans) == {"top": 3.5, "mid": 5.0}
    assert mod.outer is outer


def test_self_time_of_hand_built_spans():
    spans = [
        Span("run", "experiment", 0.0, 10.0, None, 1),
        Span("a", "x", 1.0, 4.0, 0, 1),
        Span("b", "y", 2.0, 3.0, 1, 1),
        Span("c", "x", 5.0, 9.0, 0, 1),
        Span("compare", "experiment.compare", 10.0, 11.0, None, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert layer_self_seconds(spans) == {
        "experiment": 3.0, "x": 6.0, "y": 1.0, "experiment.compare": 1.0,
    }


def test_injected_exception_is_a_failure(monkeypatch, tmp_path):
    import illposed.experiment as experiment

    c = single("deriv2", 16, 0)[0]
    reference = record_cases([c], tmp_path / "ref")
    assert reference[case_key(c)]["outcome"] == "ok"

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiment, "gamma_exact", broken)
    calls = bench.measure([c], 0.0, reference, tmp_path / "out")
    assert [call.outcome for call in calls] == ["crash:RuntimeError"]
    assert calls[0].verdict.startswith("mismatch")
    assert calls[0].failed


def test_classifier_outcomes():
    from illposed.experiment import ConfigError, InvariantViolation

    assert check.classify(None) == "ok"
    assert check.classify(InvariantViolation("x")) == "invariant"
    assert check.classify(ConfigError("x")) == "config"
    assert check.classify(ValueError("x")) == "crash:ValueError"
    failed = bench.Call("k", 1.0, "crash:ValueError", "known-crash", 0, False)
    passed = bench.Call("k", 1.0, "invariant", "match", 3, False)
    assert failed.failed and not passed.failed


def test_verdicts_against_a_reference():
    ref = {"a": {"outcome": "crash:ValueError", "observed": None}}
    assert check.verdict(ref, "a", "crash:ValueError", None) == "known-crash"
    assert check.verdict(ref, "a", "ok", None) == "improved"
    assert check.verdict(ref, "a", "crash:KeyError", None).startswith("mismatch")
    with pytest.raises(check.MissingReference):
        check.verdict(ref, "b", "ok", None)


def test_tolerance_is_anchored_to_the_audit_slack():
    obs = {
        "sigma1": 3.0,
        "headline": {"kstar": "4"},
        "exact": {"k": "1,2"},
        "sigma": {"gamma": [1.0, 1e-14], "gamma_Gk": [1.0, math.nan], "theta_min": [2.0, 1e-15]},
        "errors": {"best_lsqr_error": 0.05, "best_tsvd_error": 0.04},
    }
    ref = json.loads(json.dumps(obs))
    assert check.differences(ref, obs) == []
    close = json.loads(json.dumps(obs))
    close["sigma"]["gamma"][1] += 1.9 * check.AUDIT_SLACK * 3.0
    assert check.differences(ref, close) == []
    far = json.loads(json.dumps(obs))
    far["sigma"]["gamma"][1] += 2.1 * check.AUDIT_SLACK * 3.0
    assert check.differences(ref, far)[0].startswith("gamma:")
    flag = json.loads(json.dumps(obs))
    flag["headline"]["kstar"] = "5"
    assert check.differences(ref, flag) == ["kstar: '5' != '4'"]


def test_sweep_draw_is_deterministic_and_balanced():
    assert sweep_draw(3) == sweep_draw(3)
    assert sweep_draw(3) != sweep_draw(4)
    draw = sweep_draw(11)
    assert len(draw) == len(GRID_FAMILIES) * len(GRID_N) * len(GRID_NOISE) >= 100
    strata = {(c["problem"], c.get("decay"), c["n"], c["noise"]) for c in draw}
    assert len(strata) == len(draw)
    keys = {case_key(c) for c in grid()}
    assert all(case_key(c) in keys for c in draw)


def test_workload_seeds_map_onto_recorded_noise_seeds():
    assert WORKLOADS["shaw-1024"](3) == WORKLOADS["shaw-1024"](3 + len(SHAW_BETA_SEEDS))
    assert WORKLOADS["deriv2-1024"](5)[0]["seed"] == 5
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["cases"]
    for name, draw in WORKLOADS.items():
        for seed in (0, 1, 12345):
            assert all(case_key(c) in reference for c in draw(seed)), name
    for seed in range(len(SHAW_BETA_SEEDS)):
        ref = reference[case_key(WORKLOADS["shaw-1024"](seed)[0])]
        assert ref["observed"]["headline"]["breakdown"] == "beta_22"


TINY = {
    "shaw-1024": lambda seed: single("shaw", 16, seed),
    "deriv2-1024": lambda seed: single("deriv2", 24, seed),
    "small-sweep": sweep_draw,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GRID_N", (16,))
    cases = TINY[name](0)
    reference = record_cases(cases, tmp_path / "ref")
    calls = bench.measure(cases, 0.0, reference, tmp_path / "out")
    assert not any(c.verdict.startswith("mismatch") for c in calls)
    metrics = bench.end_to_end(calls)
    for m in SPEC["end_to_end"]:
        if m["name"] != "setup_s":
            assert metrics[m["name"]][1] == m["unit"]
            assert metrics[m["name"]][0] > 0
    tracer = Tracer()
    traced = bench.measure(cases, 0.0, reference, tmp_path / "out", tracer)
    assert sum(c.traced for c in traced) == len(cases) == len(traced) // 2
    layers = bench.per_layer(traced, tracer.spans)
    for m in SPEC["per_layer"]:
        assert layers[m["name"]][1] == m["unit"], m["name"]
    assert layers["analysis.gamma_exact.calls"][0] > 0
    if name == "small-sweep":  # heat at n = 16 crashes at the seed commit
        assert {c.verdict for c in calls if c.failed} <= {"known-crash", "improved"}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shaw-1024", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
