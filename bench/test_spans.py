"""Tests of the span recorder and of the benchmark's wrapping.

Run from the repository root: ``python3 -m pytest bench/test_spans.py -q``.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("late", 9.0, 12.0, 0),   # runs past its parent: only 9..10 counts
        ("other_root", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2, 1, 2, 3, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c1", 1.0, 5.0, 0), ("c2", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 5)


def test_layer_totals_sum_calls_total_and_self_time():
    spans = [("step", 0.0, 4.0, -1), ("leaf", 1.0, 2.0, 0), ("leaf", 2.5, 3.0, 0),
             ("step", 5.0, 6.0, -1)]
    totals = layer_totals(spans)
    assert totals["step"] == pytest.approx({"calls": 2, "total_s": 5.0, "self_s": 3.5})
    assert totals["leaf"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5})


def _fake_targets():
    module = types.ModuleType("fake")

    class Model:
        def score(self, x):
            return x + 1

    def outer(model, x):
        return model.score(x) * 2

    module.outer = outer
    return module, Model


def test_patched_records_nesting_and_counters_then_restores():
    module, Model = _fake_targets()
    originals = (vars(module)["outer"], vars(Model)["score"])
    tracer = Tracer()
    targets = [(module, "outer", "fake.outer", None),
               (Model, "score", "fake.score",
                lambda t, args, result: t.add("fake.score.result", result))]
    with tracer.patched(targets):
        assert module.outer(Model(), 2) == 6
    assert (vars(module)["outer"], vars(Model)["score"]) == originals
    assert tracer.names == ["fake.outer", "fake.score"]
    assert tracer.parents == [-1, 0]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]
    assert tracer.counters["fake.score.result"] == 3


def test_patched_restores_when_the_block_raises():
    module, Model = _fake_targets()
    originals = (vars(module)["outer"], vars(Model)["score"])
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.patched([(module, "outer", "fake.outer", None),
                             (Model, "score", "fake.score", None)]):
            module.outer(Model(), 1) / 0
    assert (vars(module)["outer"], vars(Model)["score"]) == originals


def test_benchmark_targets_are_restored_and_tracing_changes_no_result():
    train_d, _, model0 = run.setup(1)
    targets = run.trace_targets(run.ScoredPairs(model0.num_items))
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]

    plain_model, plain = run.fit_session("fit_topk", 1, train_d, model0)
    plain.run(calls=2)
    tracer = Tracer()
    traced_model, traced = run.fit_session("fit_topk", 1, train_d, model0)
    with tracer.patched(targets):
        traced.run(calls=2)

    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == originals
    assert np.array_equal(plain_model.params.values, traced_model.params.values)
    assert tracer.names.count("optimizer.train_step") == 2
    assert tracer.names.count("fairness.g2_estimate") == 2


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
