"""Tests for workflow sharing and the model registry.

Task/model functions live at module level (in this file) because the
whole point of the spec format is import-path portability.
"""

from __future__ import annotations

import json

import pytest

from repro.core import EQSQL
from repro.db import SqliteTaskStore
from repro.sde import ModelRegistry, WorkflowSpec, run_workflow
from repro.sde.registry import ValidationError
from repro.sde.workflow import WorkflowSpecError, fn_reference, resolve_fn
from repro.util.errors import NotFoundError


# -- module-level task/model functions (importable by reference) ------------

def square_task(d):
    return {"y": d["x"] ** 2}


def shout_task(s):
    return s.upper()


def doubling_model(payload):
    return {"doubled": payload["n"] * 2, "label": payload.get("label", "")}


_BROKEN_BEHAVIOUR = {"offset": 0}


def drifting_model(payload):
    """A model whose behaviour tests mutate to simulate a regression."""
    return {"value": payload["n"] + _BROKEN_BEHAVIOUR["offset"]}


class TestFnReference:
    def test_round_trip(self):
        ref = fn_reference(square_task)
        assert ref.endswith(":square_task")
        assert resolve_fn(ref) is square_task

    def test_lambda_rejected(self):
        with pytest.raises(WorkflowSpecError):
            fn_reference(lambda x: x)

    def test_unresolvable_reference(self):
        with pytest.raises(WorkflowSpecError):
            resolve_fn("no.such.module:fn")
        with pytest.raises(WorkflowSpecError):
            resolve_fn("json:no_such_attr")

    def test_non_callable_rejected(self):
        with pytest.raises(WorkflowSpecError):
            resolve_fn("json:__name__")


class TestWorkflowSpec:
    def make_spec(self):
        spec = WorkflowSpec(name="demo", version="2", parameters={"n": 3})
        spec.add_task_type(0, square_task, n_workers=2)
        spec.add_task_type(1, shout_task, n_workers=1, json_io=False)
        return spec

    def test_json_round_trip(self):
        spec = self.make_spec()
        clone = WorkflowSpec.from_json(spec.to_json())
        assert clone.name == "demo" and clone.version == "2"
        assert clone.parameters == {"n": 3}
        assert [t.work_type for t in clone.task_types] == [0, 1]
        assert clone.task_types[1].json_io is False

    def test_duplicate_work_type_rejected(self):
        spec = self.make_spec()
        with pytest.raises(WorkflowSpecError):
            spec.add_task_type(0, square_task)

    def test_malformed_json_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec.from_json('{"version": "1"}')  # no name

    def test_run_workflow_end_to_end(self):
        # Ship the spec as JSON; "the other site" rebuilds and runs it.
        shipped = self.make_spec().to_json()
        spec = WorkflowSpec.from_json(shipped)
        eq = EQSQL(SqliteTaskStore())
        results = run_workflow(
            spec,
            eq,
            payloads={
                0: [json.dumps({"x": i}) for i in range(4)],
                1: ["osprey", "emews"],
            },
            timeout=30,
        )
        eq.close()
        assert [json.loads(r)["y"] for r in results[0]] == [0, 1, 4, 9]
        assert results[1] == ["OSPREY", "EMEWS"]

    def test_undeclared_work_type_rejected(self):
        spec = self.make_spec()
        eq = EQSQL(SqliteTaskStore())
        with pytest.raises(WorkflowSpecError):
            run_workflow(spec, eq, payloads={9: ["{}"]})
        eq.close()

    def test_empty_spec_rejected(self):
        eq = EQSQL(SqliteTaskStore())
        with pytest.raises(WorkflowSpecError):
            run_workflow(WorkflowSpec(name="empty"), eq, payloads={})
        eq.close()


class TestModelRegistry:
    CASES = [
        ("small", {"n": 2}, {"doubled": 4, "label": ""}),
        ("labeled", {"n": 5, "label": "x"}, {"doubled": 10, "label": "x"}),
    ]

    def test_publish_and_get(self):
        registry = ModelRegistry()
        record = registry.publish("doubler", "1.0", doubling_model, self.CASES)
        assert registry.get("doubler", "1.0") is record
        assert registry.get("doubler") is record  # latest
        assert registry.versions("doubler") == ["1.0"]
        assert registry.models() == ["doubler"]

    def test_publication_refused_on_failing_cases(self):
        registry = ModelRegistry()
        bad_cases = [("wrong", {"n": 2}, {"doubled": 5, "label": ""})]
        with pytest.raises(ValidationError, match="refusing to publish"):
            registry.publish("doubler", "1.0", doubling_model, bad_cases)
        assert registry.models() == []

    def test_publish_without_cases_rejected(self):
        with pytest.raises(ValidationError):
            ModelRegistry().publish("m", "1", doubling_model, [])

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.publish("doubler", "1.0", doubling_model, self.CASES)
        with pytest.raises(ValidationError, match="already published"):
            registry.publish("doubler", "1.0", doubling_model, self.CASES)

    def test_latest_by_publication_time(self):
        from repro.util.clock import VirtualClock

        clock = VirtualClock()
        registry = ModelRegistry(clock=clock)
        registry.publish("doubler", "1.0", doubling_model, self.CASES)
        clock.advance(10)
        registry.publish("doubler", "1.1", doubling_model, self.CASES)
        assert registry.get("doubler").version == "1.1"

    def test_unknown_model(self):
        with pytest.raises(NotFoundError):
            ModelRegistry().get("ghost")

    def test_regression_detected_on_revalidation(self):
        """§II-B3b: the registry detects correctness regressions."""
        registry = ModelRegistry()
        _BROKEN_BEHAVIOUR["offset"] = 0
        registry.publish(
            "drifter", "1.0", drifting_model,
            [("case", {"n": 3}, {"value": 3})],
        )
        assert registry.validate("drifter").passed
        # The code drifts (a bad refactor lands).
        _BROKEN_BEHAVIOUR["offset"] = 1
        try:
            report = registry.validate("drifter")
            assert not report.passed
            assert report.regressions[0].case == "case"
            assert "expected 3" in report.regressions[0].mismatches[0]
            assert "0/1 cases passed" in report.summary()
        finally:
            _BROKEN_BEHAVIOUR["offset"] = 0

    def test_model_exception_is_a_case_failure(self):
        registry = ModelRegistry()
        _BROKEN_BEHAVIOUR["offset"] = 0
        registry.publish(
            "drifter", "2.0", drifting_model, [("case", {"n": 1}, {"value": 1})]
        )
        report_fn = registry.get("drifter", "2.0")
        # Validate against a payload the model crashes on by publishing
        # a new version with a bad case, skipping the publish gate.
        record = registry.publish(
            "crasher", "1.0", drifting_model,
            [("boom", {"wrong-key": 1}, {"value": 1})],
            validate_now=False,
        )
        report = registry.validate("crasher", "1.0")
        assert not report.passed
        assert report.results[0].error is not None
        del report_fn, record
