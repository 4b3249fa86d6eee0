"""--set coercion for nested JSON params: merge, round-trip, clear errors."""

import pytest

from repro.experiments.spec import RunSpec


class TestDottedParamsOverrides:
    def test_dotted_path_builds_nested_dicts(self):
        spec = RunSpec().with_overrides(
            ["params.budget.vm_migrate=2", "params.budget.window_hours=12.5"]
        )
        assert spec.params == {
            "budget": {"vm_migrate": 2, "window_hours": 12.5}
        }

    def test_json_values_parse_with_types(self):
        spec = RunSpec().with_overrides(
            [
                'params.assignments={"k920": {"train_platform": "intel_purley"}}',
                "params.collect_scores=true",
                "params.note=smoke",
            ]
        )
        assert spec.params["assignments"] == {
            "k920": {"train_platform": "intel_purley"}
        }
        assert spec.params["collect_scores"] is True
        assert spec.params["note"] == "smoke"

    def test_merges_with_existing_params(self):
        base = RunSpec(params={"policy": {"vm_migrate_score": 0.9}})
        spec = base.with_overrides(["params.policy.bank_spare_score=0.7"])
        assert spec.params["policy"] == {
            "vm_migrate_score": 0.9,
            "bank_spare_score": 0.7,
        }
        # the original spec is untouched (deep copy, not aliasing)
        assert base.params == {"policy": {"vm_migrate_score": 0.9}}

    def test_whole_object_assignment_replaces(self):
        base = RunSpec(params={"old": 1})
        spec = base.with_overrides(['params={"fresh": {"a": [1, 2]}}'])
        assert spec.params == {"fresh": {"a": [1, 2]}}

    def test_whole_object_then_dotted_merge(self):
        spec = RunSpec().with_overrides(
            ['params={"budget": {"vm_migrate": 1}}',
             "params.budget.bank_spare=3"]
        )
        assert spec.params == {"budget": {"vm_migrate": 1, "bank_spare": 3}}

    def test_round_trips_through_json_files(self, tmp_path):
        spec = RunSpec(scenario="fleet_ops").with_overrides(
            [
                'params.assignments={"k920": {"train_platform": "intel_purley"}}',
                "params.budget.vm_migrate=2",
                "params.rescore_interval_hours=0.25",
            ]
        )
        path = tmp_path / "spec.json"
        spec.to_json_file(path)
        reloaded = RunSpec.from_json_file(path)
        assert reloaded == spec
        assert reloaded.params["assignments"]["k920"]["train_platform"] == (
            "intel_purley"
        )

    def test_malformed_json_object_is_a_clear_error(self):
        with pytest.raises(ValueError, match=r"params\.assignments"):
            RunSpec().with_overrides(
                ['params.assignments={"k920": {"train_platform"']
            )
        with pytest.raises(ValueError, match="params must be a JSON object"):
            RunSpec().with_overrides(["params={broken"])
        with pytest.raises(ValueError, match="params must be a JSON object"):
            RunSpec().with_overrides(["params=[1, 2]"])

    def test_truncated_number_is_an_error_not_a_string(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            RunSpec().with_overrides(["params.budget.vm_migrate=1.2.3"])

    def test_empty_path_segment_rejected(self):
        with pytest.raises(ValueError, match="empty segment"):
            RunSpec().with_overrides(["params.=1"])
        with pytest.raises(ValueError, match="empty segment"):
            RunSpec().with_overrides(["params.budget..x=1"])

    def test_descending_into_scalar_rejected(self):
        base = RunSpec(params={"batch_size": 64})
        with pytest.raises(ValueError, match="cannot descend"):
            base.with_overrides(["params.batch_size.nested=1"])

    def test_non_dict_params_rejected_at_validate(self):
        with pytest.raises(ValueError, match="params must be a dict"):
            RunSpec(params=[1, 2]).validate()

    def test_non_serialisable_params_rejected_at_validate(self):
        with pytest.raises(ValueError, match="JSON-serialisable"):
            RunSpec(params={"bad": object()}).validate()

    @pytest.mark.parametrize("value", [0, -3])
    def test_max_samples_below_one_rejected_at_validate(self, value):
        spec = RunSpec().with_overrides([f"max_samples_per_dimm={value}"])
        with pytest.raises(ValueError, match="max_samples_per_dimm must be"):
            spec.validate()

    def test_platform_override_value_error_is_clear(self):
        with pytest.raises(ValueError, match="must be numeric"):
            RunSpec().with_overrides(["platform_overrides=k920:scale=big"])
