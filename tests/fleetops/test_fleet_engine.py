"""Fleet replay engine: merged-pass parity, policy wiring, scenario."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec
from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.fleetops import engine as fleet_engine
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import ActionBudget, PolicyEngine
from repro.fleetops.stream import UndecodedStreamError, merge_fleet_streams
from repro.streaming.replay import ReplayEngine

THRESHOLD = 0.985


class _EchoModel:
    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


class _CountingEchoModel(_EchoModel):
    """Records the row count of every ``predict_proba`` call."""

    def __init__(self):
        self.calls = []

    def predict_proba(self, X):
        self.calls.append(len(X))
        return super().predict_proba(X)


@pytest.fixture(scope="module")
def fitted_fleet(tiny_study):
    pipelines = {}
    for name, simulation in tiny_study.items():
        pipeline = FeaturePipeline()
        pipeline.fit(simulation.store)
        pipelines[name] = pipeline
    return pipelines


def _assignments(tiny_study, pipelines, live_fraction=0.6, models=None):
    model = _EchoModel()
    assignments = {}
    for name, simulation in tiny_study.items():
        assignments[name] = ServingAssignment(
            platform=name,
            model_name="echo",
            train_platform=name,
            model=models[name] if models else model,
            threshold=THRESHOLD,
            pipeline=pipelines[name],
            configs=simulation.store.configs,
            live_from_hour=live_fraction * simulation.duration_hours,
        )
    return assignments


def _fleet_replay(
    tiny_study, pipelines, stream_kwargs=None, models=None, **kwargs
):
    stores = {name: sim.store for name, sim in tiny_study.items()}
    assignments = _assignments(tiny_study, pipelines, models=models)
    defaults = dict(
        labeling=LabelingParams(),
        policy=PolicyEngine(budget=ActionBudget(), seed=7),
        rescore_interval_hours=0.0,
        batch_size=64,
        collect_scores=True,
    )
    defaults.update(kwargs)
    engine = FleetReplayEngine(assignments, **defaults)
    stream = merge_fleet_streams(stores, **(stream_kwargs or {}))
    report = engine.replay(stream, stores)
    return engine, report, assignments


class TestMergedParity:
    """The acceptance bar: merged-fleet per-DIMM scores are bit-for-bit
    the single-platform streaming path's scores."""

    @pytest.fixture(scope="class")
    def merged(self, tiny_study, fitted_fleet):
        return _fleet_replay(tiny_study, fitted_fleet)

    @pytest.fixture(scope="class", params=["batched", "per_event"])
    def singles(self, request, tiny_study, fitted_fleet):
        """Single-platform runs on either engine; ``per_event`` is the
        sequential pre-fleet baseline."""
        reports = {}
        engines = {}
        for name, simulation in tiny_study.items():
            engine = ReplayEngine(
                fitted_fleet[name],
                _EchoModel(),
                THRESHOLD,
                name,
                configs=simulation.store.configs,
                labeling=LabelingParams(),
                live_from_hour=0.6 * simulation.duration_hours,
                rescore_interval_hours=0.0,
                batch_size=64,
                engine=request.param,
                collect_scores=True,
            )
            reports[name] = engine.replay(simulation.store)
            engines[name] = engine
        return engines, reports

    def test_per_dimm_scores_bit_for_bit(self, merged, singles):
        fleet_engine, _, _ = merged
        single_engines, _ = singles
        for name, single in single_engines.items():
            assert fleet_engine.score_logs[name] == single.score_log
            assert len(single.score_log) > 0

    def test_per_platform_reports_match_single_runs(self, merged, singles):
        _, fleet_report, _ = merged
        _, single_reports = singles
        for name, single in single_reports.items():
            platform_report = fleet_report.platforms[name]
            assert platform_report["scored"] == single.scored
            assert platform_report["scored_dimms"] == single.scored_dimms
            assert platform_report["ces"] == single.ces
            assert platform_report["ues"] == single.ues
            assert platform_report["fallbacks"] == single.fallbacks
            assert platform_report["alarms"] == single.alarms

    def test_fleet_totals(self, merged, singles):
        _, fleet_report, _ = merged
        _, single_reports = singles
        assert fleet_report.events == sum(
            r.events for r in single_reports.values()
        )
        assert fleet_report.scored == sum(
            r.scored for r in single_reports.values()
        )

    def test_replay_is_deterministic(self, tiny_study, fitted_fleet, merged):
        _, first_report, _ = merged
        _, second_report, _ = _fleet_replay(tiny_study, fitted_fleet)
        assert second_report.costs == first_report.costs
        assert second_report.fleet_cost == first_report.fleet_cost
        assert second_report.actions == first_report.actions

    @pytest.mark.parametrize("coherent_flush", [False, True])
    def test_batched_engine_matches_per_event(
        self, tiny_study, fitted_fleet, coherent_flush, monkeypatch
    ):
        # Small flushes and small scoring blocks: coherent mode's
        # up-front pass crosses block edges and serves many flushes, and
        # the per-flush per_event engine is its oracle.
        monkeypatch.setattr(fleet_engine, "SCORE_BLOCK", 64)
        models = {name: _CountingEchoModel() for name in tiny_study}
        kwargs = dict(batch_size=3, coherent_flush=coherent_flush)
        batched_engine, batched_report, _ = _fleet_replay(
            tiny_study, fitted_fleet, models=models, **kwargs
        )
        assert batched_report.engine == "batched"
        pe_engine, pe_report, _ = _fleet_replay(
            tiny_study, fitted_fleet, engine="per_event", **kwargs
        )
        assert pe_report.engine == "per_event"
        for name in tiny_study:
            assert (
                batched_engine.score_logs[name] == pe_engine.score_logs[name]
            )
            assert (
                batched_report.platforms[name]["alarms"]
                == pe_report.platforms[name]["alarms"]
            )
        assert batched_report.costs == pe_report.costs
        assert batched_report.actions == pe_report.actions
        assert batched_report.fleet_cost == pe_report.fleet_cost
        assert set(batched_report.stage_seconds) == {
            "ingest", "features", "predict", "alarms"
        }
        for name, model in models.items():
            platform = batched_report.platforms[name]
            assert platform["predicted"] == sum(model.calls)
            assert platform["predicted"] >= platform["scored"]
            assert pe_report.platforms[name]["predicted"] == platform["scored"]
            if coherent_flush:
                # One call per scoring block, however many flushes.
                blocks = -(-platform["predicted"] // 64)
                assert len(model.calls) == blocks
                assert platform["batches"] > blocks
            else:
                assert len(model.calls) == platform["batches"]
                assert platform["predicted"] == platform["scored"]

    def test_per_event_engine_rejects_manifest_stream(
        self, tiny_study, fitted_fleet
    ):
        stores = {name: sim.store for name, sim in tiny_study.items()}
        assignments = _assignments(tiny_study, fitted_fleet)
        engine = FleetReplayEngine(
            assignments,
            labeling=LabelingParams(),
            engine="per_event",
        )
        manifest = merge_fleet_streams(stores, decode_payloads=False)
        assert not manifest.decoded
        with pytest.raises(ValueError, match="decoded"):
            engine.replay(manifest, stores)

    def test_batched_engine_accepts_manifest_stream(
        self, tiny_study, fitted_fleet, merged
    ):
        _, decoded_report, _ = merged
        _, manifest_report, _ = _fleet_replay(
            tiny_study, fitted_fleet, stream_kwargs={"decode_payloads": False}
        )
        assert manifest_report.events == decoded_report.events
        assert manifest_report.costs == decoded_report.costs
        assert manifest_report.fleet_cost == decoded_report.fleet_cost

    def test_costs_cover_every_platform_plus_fleet(self, merged):
        engine, report, assignments = merged
        assert set(report.costs) == set(assignments)
        assert set(engine.cost_summaries) == set(assignments) | {"fleet"}
        fleet = report.fleet_cost
        assert fleet["ue_dimms"] == sum(
            c["ue_dimms"] for c in report.costs.values()
        )
        total_actions = sum(
            sum(c["actions"].values()) for c in report.costs.values()
        )
        assert sum(fleet["actions"].values()) == total_actions

    def test_actions_follow_incidents(self, merged):
        engine, report, _ = merged
        raised = sum(
            p["alarms"]["raised"] for p in report.platforms.values()
        )
        assert report.actions["requested"] == raised > 0
        assert (
            report.actions["executed"] + report.actions["pending"] == raised
        )

    def test_unassigned_platform_rejected(self, tiny_study, fitted_fleet):
        stores = {name: sim.store for name, sim in tiny_study.items()}
        assignments = _assignments(tiny_study, fitted_fleet)
        assignments.pop("k920")
        engine = FleetReplayEngine(assignments, labeling=LabelingParams())
        stream = merge_fleet_streams(stores)
        with pytest.raises(ValueError, match="unassigned platforms"):
            engine.replay(stream, stores)

    def test_per_event_rejects_undecoded_stream(self, tiny_study, fitted_fleet):
        """The manifest-only stream is a batched-engine contract; feeding
        it to the per-event walk raises the typed error, not an AttributeError
        deep in the loop."""
        stores = {name: sim.store for name, sim in tiny_study.items()}
        assignments = _assignments(tiny_study, fitted_fleet)
        engine = FleetReplayEngine(
            assignments, labeling=LabelingParams(), engine="per_event"
        )
        stream = merge_fleet_streams(stores, decode_payloads=False)
        assert not stream.decoded
        with pytest.raises(UndecodedStreamError, match="decode_payloads=True"):
            engine.replay(stream, stores)
        # And the same stream is exactly what the batched engine wants.
        batched = FleetReplayEngine(
            assignments, labeling=LabelingParams(), engine="batched"
        )
        report = batched.replay(stream, stores)
        assert report.events == stream.events


class TestSinglePlatformFeatures:
    """``score_hook`` and ``alarm_from_hour`` live in the fleet walker."""

    PLATFORMS = ("intel_purley", "k920")

    def _pair(self, tiny_study, fitted_fleet, **kwargs):
        assignments = _assignments(tiny_study, fitted_fleet, **kwargs)
        return {name: assignments[name] for name in self.PLATFORMS}

    def _run(self, tiny_study, assignments, **kwargs):
        stores = {name: tiny_study[name].store for name in self.PLATFORMS}
        engine = FleetReplayEngine(
            assignments,
            labeling=LabelingParams(),
            rescore_interval_hours=0.0,
            batch_size=64,
            collect_scores=True,
            **kwargs,
        )
        engine.replay(merge_fleet_streams(stores), stores)
        return engine

    def test_score_hook_rejects_coherent_flush(self, tiny_study, fitted_fleet):
        assignments = _assignments(tiny_study, fitted_fleet)
        with pytest.raises(ValueError, match="coherent_flush"):
            FleetReplayEngine(
                assignments,
                score_hook=lambda dimm_id, t, features, score: None,
                coherent_flush=True,
            )

    @pytest.mark.parametrize("engine", ["batched", "per_event"])
    def test_score_hook_sees_every_scored_row(
        self, tiny_study, fitted_fleet, engine
    ):
        assignments = self._pair(tiny_study, fitted_fleet)
        seen = []

        def hook(dimm_id, t, features, score):
            rescored = _EchoModel().predict_proba(features[None, :])[0]
            seen.append((dimm_id, t, score, rescored))

        fleet = self._run(
            tiny_study, assignments, engine=engine, score_hook=hook
        )
        logged = [
            entry
            for name in self.PLATFORMS
            for entry in fleet.score_logs[name]
        ]
        assert sorted(entry[:3] for entry in seen) == sorted(logged)
        assert all(entry[2] == entry[3] for entry in seen)

    def test_alarm_from_hour_gates_one_platform(
        self, tiny_study, fitted_fleet
    ):
        base = self._pair(tiny_study, fitted_fleet, live_fraction=0.0)
        gated_name, other_name = self.PLATFORMS
        hour = 0.5 * tiny_study[gated_name].duration_hours
        gated = dict(base)
        gated[gated_name] = replace(base[gated_name], alarm_from_hour=hour)

        plain = self._run(tiny_study, base)
        fleet = self._run(tiny_study, gated)

        before = [
            incident.opened_hour
            for incident in plain.runtimes[gated_name].alarms.incidents
            if incident.opened_hour < hour
        ]
        assert before, "expected incidents before the hour without gating"
        assert all(
            incident.opened_hour >= hour
            for incident in fleet.runtimes[gated_name].alarms.incidents
        )
        # The other platform is untouched, and the gated one scores exactly
        # as it does replayed alone with the same gate.
        assert fleet.score_logs[other_name] == plain.score_logs[other_name]
        simulation = tiny_study[gated_name]
        alone = ReplayEngine(
            fitted_fleet[gated_name],
            _EchoModel(),
            THRESHOLD,
            gated_name,
            configs=simulation.store.configs,
            labeling=LabelingParams(),
            alarm_from_hour=hour,
            rescore_interval_hours=0.0,
            batch_size=64,
            collect_scores=True,
        )
        alone.replay(simulation.store, model_name="echo")
        assert fleet.score_logs[gated_name] == alone.score_log
        assert len(alone.score_log) > 0


class TestFleetOpsScenario:
    @pytest.fixture(scope="class")
    def cached_context(self, tiny_study, tiny_protocol):
        spec = RunSpec(
            scenario="fleet_ops",
            platforms=("intel_purley", "k920"),
            models=("lightgbm",),
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
            max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
            params={
                "assignments": {"k920": {"train_platform": "intel_purley"}},
                "batch_size": 64,
            },
        )
        cache = ArtifactCache()
        context = RunContext(spec, cache=cache)
        for platform in spec.platforms:
            cache.put_simulation(
                context.simulation_key(platform), tiny_study[platform]
            )
        return spec, cache, tiny_protocol

    @pytest.fixture(scope="class")
    def result(self, cached_context):
        spec, cache, protocol = cached_context
        return run_spec(spec, protocol=protocol, cache=cache)

    def test_cells_carry_cross_architecture_assignment(self, result):
        own = result.cell("intel_purley", "intel_purley", "lightgbm")
        crossed = result.cell("intel_purley", "k920", "lightgbm")
        assert own.result.supported and crossed.result.supported
        assert crossed.train_platform == "intel_purley"
        assert result.any_nonfinite() == []

    def test_extras_report_shape(self, result):
        payload = result.extras["fleet_ops"]
        report = payload["report"]
        assert set(report["platforms"]) == {"intel_purley", "k920"}
        assert report["events"] > 0 and report["scored"] > 0
        for platform_report in report["platforms"].values():
            assert "alarms" in platform_report
        assert set(report["costs"]) == {"intel_purley", "k920"}
        assert "fleet_cost" in report and "savings" in report["fleet_cost"]
        assert payload["assignments"]["k920"]["train_platform"] == (
            "intel_purley"
        )

    def test_scenario_is_deterministic(self, cached_context, result):
        spec, cache, protocol = cached_context
        again = run_spec(spec, protocol=protocol, cache=cache)
        assert (
            again.extras["fleet_ops"]["report"]["costs"]
            == result.extras["fleet_ops"]["report"]["costs"]
        )
        assert (
            again.extras["fleet_ops"]["report"]["actions"]
            == result.extras["fleet_ops"]["report"]["actions"]
        )

    def test_result_round_trips_to_json(self, result, tmp_path):
        import json

        out = tmp_path / "fleet.json"
        result.to_json_file(out)
        payload = json.loads(out.read_text())
        assert "fleet_ops" in payload["extras"]

    def test_unsupported_model_marks_cell(self, tiny_study, tiny_protocol):
        spec = RunSpec(
            scenario="fleet_ops",
            platforms=("intel_purley", "intel_whitley"),
            models=("risky_ce_pattern",),  # purley-only heuristic
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
            max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
        )
        cache = ArtifactCache()
        context = RunContext(spec, cache=cache)
        for platform in spec.platforms:
            cache.put_simulation(
                context.simulation_key(platform), tiny_study[platform]
            )
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        whitley = result.cell(
            "intel_whitley", "intel_whitley", "risky_ce_pattern"
        )
        assert not whitley.result.supported
        assert "intel_whitley" in result.extras["fleet_ops"]["unsupported"]
        purley = result.cell("intel_purley", "intel_purley", "risky_ce_pattern")
        assert purley.result.supported

    def test_bad_assignment_rejected(self, tiny_protocol):
        from repro.fleetops.scenario import resolve_assignments

        spec = RunSpec(
            scenario="fleet_ops",
            platforms=("intel_purley",),
            params={"assignments": {"k920": {}}},
        )
        with pytest.raises(ValueError, match="not in spec.platforms"):
            resolve_assignments(spec)
        spec = RunSpec(
            scenario="fleet_ops",
            platforms=("intel_purley", "k920"),
            params={"assignments": {"k920": {"train_platform": "nope"}}},
        )
        with pytest.raises(ValueError, match="train_platform"):
            resolve_assignments(spec)
        spec = RunSpec(
            scenario="fleet_ops",
            platforms=("intel_purley",),
            params={"assignments": {"intel_purley": {"typo": 1}}},
        )
        with pytest.raises(ValueError, match="unknown keys"):
            resolve_assignments(spec)
