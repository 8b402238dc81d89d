"""Span self-time arithmetic, patching, and the metric-name contract."""

import json
from pathlib import Path

import pytest

from perfbench.harness import METRIC_NAME, Tracer, check_metric_names, patched
from perfbench.workloads import MODULES, load

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 5] > g [2, 4];  root > b [6, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    assert dict(tracer.self_s) == {"g": 2, "a": 2, "b": 3, "root": 3}
    assert dict(tracer.total_s) == {"g": 2, "a": 4, "b": 3, "root": 10}
    assert sum(tracer.self_s.values()) == tracer.total_s["root"]
    ids = {name: sid for sid, name, *_ in tracer.records}
    parents = {name: parent for _, name, _, _, parent in tracer.records}
    assert parents == {"g": ids["a"], "a": ids["root"], "b": ids["root"], "root": -1}


def test_same_name_nested_spans_are_not_double_counted():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4))
    with tracer.span("x"):
        with tracer.span("x"):
            pass
    assert tracer.self_s["x"] == 4
    assert tracer.total_s["x"] == 6  # inclusive time does double count
    assert tracer.calls["x"] == 2


def test_leaf_time_is_charged_to_its_parent_and_not_nested():
    tracer = Tracer(clock=FakeClock(0, 1, 4, 10))

    def inner():
        return "inner"

    wrapped_inner = tracer.wrap(inner, "leaf", leaf=True)

    def outer():
        return wrapped_inner()  # a leaf inside a leaf is not timed again

    wrapped_outer = tracer.wrap(outer, "leaf", leaf=True)
    with tracer.span("root"):
        assert wrapped_outer() == "inner"
    assert tracer.self_s["leaf"] == 3
    assert tracer.calls["leaf"] == 1
    assert tracer.self_s["root"] == 7
    assert [r[1] for r in tracer.records] == ["root"]  # leaves keep no record


def test_wrapped_method_spans_and_exceptions():
    tracer = Tracer(clock=FakeClock(0, 2, 5, 6))

    class Layer:
        def work(self):
            raise ValueError("boom")

    with patched([(Layer, "work", lambda f: tracer.wrap(f, "layer.work"))]):
        with tracer.span("root"):
            with pytest.raises(ValueError):
                Layer().work()
    assert tracer.self_s["layer.work"] == 3
    assert tracer.self_s["root"] == 3


def test_patched_restores_originals_after_an_error():
    class Owner:
        def method(self):
            return "original"

    original = vars(Owner)["method"]
    with pytest.raises(RuntimeError):
        with patched([(Owner, "method", lambda f: lambda self: "patched")]):
            assert Owner().method() == "patched"
            raise RuntimeError
    assert vars(Owner)["method"] is original


def test_every_metric_name_matches_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert check_metric_names(names) == []
    assert len(names) == len(set(names))
    assert check_metric_names(["ok.name-1", "bad name", "bad/name"]) == ["bad name", "bad/name"]
    assert METRIC_NAME.fullmatch("abr_env.r_opt_share")


def test_workloads_and_spec_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(MODULES)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    produced = set()
    for name in MODULES:
        module = load(name)
        assert set(module.LAYER_METRICS) <= per_layer
        assert module.LAYER_SPANS and not any(s.startswith("bench.") for s in module.LAYER_SPANS)
        assert set(module.ALIASES) <= end_to_end
        assert check_metric_names(module.ALIASES.values()) == []
        produced |= set(module.LAYER_METRICS)
    assert per_layer - produced == {"trace.overhead_frac", "trace.unattributed_frac"}
