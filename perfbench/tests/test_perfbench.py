"""Tests of the benchmark's own code: generators, checks and tracer."""

import importlib
import json
import os

import pytest

import branchbox.branch
import branchbox.lr
from perfbench import rounds, run, speed, tracer, workloads
from perfbench.tracer import COUNT, TARGETS, Target, Tracer


def _op(i, argv, check, group=None, expect="ok"):
    return {"id": i, "kind": "cli", "argv": argv, "expect": expect,
            "check": check, "group": group}


def _small_round():
    """An LR sweep, an O tensor table with one single value, and a Schur crosscheck."""
    sweep = {"type": "sweep-lr", "mu": (2, 1), "nu": (1,)}
    ops = [_op(i, ["lr", "--lam", lam, "--mu", "2,1", "--nu", "1"], sweep, "g")
           for i, lam in enumerate(("3,1", "2,2", "2,1,1"))]
    table = ["tensor", "o", "--mu", "2,1", "--nu", "1", "--n", "7"]
    ops.append(_op(3, table, {"type": "tensor-o-table", "mu": (2, 1), "nu": (1,), "n": 7}))
    ops.append(_op(4, table + ["--lam", "2,2"], {"type": "single", "table": 3,
                                                 "labels": [(2, 2)]}))
    ops.append({"id": 5, "kind": "schur", "mu": (2, 1), "nu": (1,), "m": 3,
                "expect": "ok", "check": {"type": "schur"}, "group": None})
    return ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    first = workloads.generate(workload, 7, 1)
    assert first == workloads.generate(workload, 7, 1)
    assert first != workloads.generate(workload, 8, 1)
    assert first != workloads.generate(workload, 7, 2)
    for op in first:
        argv = op.get("argv", [])
        assert "--jobs" not in argv and "--cache" not in argv


@pytest.mark.parametrize("items", [range(5), range(30)])
def test_deal_spreads_a_class_over_the_rounds(items):
    """Fewer items than strata: each dealt equally often and never twice in a round."""
    rounds_, count = 4, 3
    runs = []
    for seed in (1, 2):
        dealt = [workloads._Draw(f"w:{seed}", k, rounds_).deal("slot", items, count)
                 for k in range(rounds_)]
        assert all(len(set(per_round)) == count for per_round in dealt)
        runs.append(sorted(x for per_round in dealt for x in per_round))
    if len(items) < rounds_ * count:
        assert runs[0] == runs[1]
        assert max(runs[0].count(x) for x in items) - min(runs[0].count(x) for x in items) <= 1
    else:  # one item from each of the 12 cost strata
        assert all(s * 30 // 12 <= x < (s + 1) * 30 // 12 for s, x in enumerate(runs[0]))


def test_op_costs_cancel_a_slower_machine():
    fast = {"op_seconds": [0.010, 0.020], "ref_seconds": [0.001, 0.001]}
    slow = {"op_seconds": [0.020, 0.040], "ref_seconds": [0.002, 0.002]}
    unit = speed.REFERENCE_SECONDS / 0.001
    assert speed.op_costs([[fast, slow]]) == pytest.approx([0.010 * unit, 0.020 * unit])
    # only the repeats taken at or above the run's median speed count
    slower = {"op_seconds": [0.050, 0.090], "ref_seconds": [0.003, 0.003]}
    assert speed.op_costs([[fast, slow, slower]]) == pytest.approx([0.010 * unit, 0.020 * unit])


def test_clean_round_has_no_failures():
    summary = rounds.run_round(_small_round(), traced=False)
    assert summary["failures"] == {}
    assert "layers" not in summary


def test_planted_wrong_lr_value_is_a_failed_op(monkeypatch):
    original = branchbox.lr.lr_coefficient

    def planted(lam, mu, nu):
        value = original(lam, mu, nu)
        return value + 1 if tuple(lam) == (2, 2) else value

    monkeypatch.setattr(branchbox.lr, "lr_coefficient", planted)
    summary = rounds.run_round(_small_round(), traced=False)
    # the whole LR sweep breaks its dimension identity, and Schur disagrees with LR
    assert sorted(summary["failures"]) == ["0", "1", "2", "5"]
    assert summary["wrong_answers"] == [0, 1, 2, 5]


def test_planted_wrong_table_value_is_a_failed_op(monkeypatch):
    original = branchbox.branch.o_tensor_stable

    def planted(mu, nu, lam, n, policy=branchbox.branch.ENFORCE):
        value = original(mu, nu, lam, n, policy)
        return value + 1 if tuple(lam) == (3, 1) else value

    monkeypatch.setattr(branchbox.branch, "o_tensor_stable", planted)
    summary = rounds.run_round(_small_round(), traced=False)
    assert summary["failures"]["3"].startswith("dimension")
    assert summary["failures"]["4"] == "its table failed"
    assert list(summary["failures"]) == ["3", "4"]


def test_traceback_is_a_failed_op(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(branchbox.branch, "o_tensor_stable", broken)
    summary = rounds.run_round(_small_round(), traced=False)
    assert summary["failures"]["3"] == "traceback: RuntimeError: planted"
    assert summary["failures"]["4"] == "traceback: RuntimeError: planted"
    assert summary["wrong_answers"] == []


def test_untraced_round_never_builds_a_tracer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tracer built in an untraced round")

    monkeypatch.setattr(tracer, "Tracer", refuse)
    rounds.run_round(_small_round(), traced=False)


def _bindings():
    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
            for t in TARGETS}


def test_tracer_leaves_no_wrapper_behind():
    before = _bindings()
    summary = rounds.run_round(_small_round(), traced=True)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    layers = summary["layers"]
    assert summary["missing"] == []
    assert layers["lr.calls"] > 0 and layers["lr.memo_new"] >= 0
    assert layers["schur.multiply_calls"] == 1
    assert layers["dualpair.linalg.echelon_calls"] == 0
    assert layers["trace.spans"] > 0


def test_missing_target_is_reported_not_raised():
    gone = Target("branchbox.lr", "renamed_away", "lr.renamed_away", "lr", COUNT)
    absent = Target("branchbox.no_such_module", "f", "x.f", "x", COUNT)
    before = _bindings()
    with Tracer(targets=TARGETS + (gone, absent)) as t:
        rounds.run_ops(_small_round()[:3], t)
    assert t.missing == ["branchbox.lr.renamed_away", "branchbox.no_such_module.f"]
    assert t.metrics()["trace.missing_targets"] == 2
    assert _bindings() == before


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
