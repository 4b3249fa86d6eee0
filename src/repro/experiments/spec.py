"""Declarative run specification: one JSON-serialisable object per study.

A :class:`RunSpec` names a scenario plus every knob the scenario needs —
platforms, models, population scale, campaign length, seed, extraction
engine — and nothing else.  The CLI builds one from ``repro run <scenario>
[--set key=value]`` or loads one from ``--spec spec.json``; programmatic
callers construct it directly and hand it to
:func:`repro.experiments.run_spec`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Engines accepted by ``build_samples`` (mirrored here so the spec module
#: stays import-free; validated for real against the pipeline at run time).
ENGINE_CHOICES = ("fleet", "per_sample")

_DEFAULT_PLATFORMS = ("intel_purley", "intel_whitley", "k920")
_DEFAULT_MODELS = ("risky_ce_pattern", "random_forest", "lightgbm")


@dataclass(frozen=True)
class RunSpec:
    """Everything one scenario run depends on, in one declarative value.

    ``(platform, scale, seed, hours)`` identify a simulation artifact and
    ``max_samples_per_dimm`` (through the derived protocol) a SampleSet
    artifact in the :class:`~repro.experiments.cache.ArtifactCache`;
    ``engine`` only picks *how* samples are built (both engines are
    bit-identical), so it is excluded from cache keys.
    """

    scenario: str = "single_platform"
    platforms: tuple[str, ...] = _DEFAULT_PLATFORMS
    models: tuple[str, ...] = _DEFAULT_MODELS
    scale: float = 0.25
    hours: float = 2880.0
    seed: int = 7
    max_samples_per_dimm: int = 16
    engine: str = "fleet"
    cache_dir: str | None = None
    #: Per-platform ``scale`` / ``hours`` overrides for heterogeneous
    #: fleets within one scenario, e.g. ``{"k920": {"scale": 0.5}}``.
    #: Overridden values flow into the per-platform simulation cache keys
    #: and temporal splits; platforms without an entry use the spec-wide
    #: ``scale`` / ``hours``.
    platform_overrides: dict = field(default_factory=dict)
    #: Free-form scenario parameters (forward compatibility for registered
    #: third-party scenarios); must be JSON-serialisable.
    params: dict = field(default_factory=dict)

    # -- derived configuration --------------------------------------------

    def protocol(self):
        """The :class:`ExperimentProtocol` this spec implies (lazy import)."""
        from repro.evaluation.protocol import ExperimentProtocol
        from repro.features.sampling import SamplingParams

        return ExperimentProtocol(
            scale=self.scale,
            duration_hours=self.hours,
            seed=self.seed,
            sampling=SamplingParams(max_samples_per_dimm=self.max_samples_per_dimm),
        )

    def effective_scale(self, platform: str) -> float:
        """The platform's fleet scale (override, else the spec-wide value)."""
        return float(self.platform_overrides.get(platform, {}).get(
            "scale", self.scale
        ))

    def effective_hours(self, platform: str) -> float:
        """The platform's campaign length (override, else spec-wide)."""
        return float(self.platform_overrides.get(platform, {}).get(
            "hours", self.hours
        ))

    def validate(self) -> "RunSpec":
        """Cheap structural checks (registry checks happen at run time)."""
        if not isinstance(self.params, dict):
            raise ValueError(
                f"spec.params must be a dict, got {type(self.params).__name__}"
            )
        try:
            json.dumps(self.params)
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"spec.params must be JSON-serialisable (it is part of the "
                f"spec's JSON round-trip): {error}"
            ) from None
        if not self.platforms:
            raise ValueError("spec.platforms must name at least one platform")
        if not self.models:
            raise ValueError("spec.models must name at least one model")
        if self.scale <= 0:
            raise ValueError("spec.scale must be positive")
        if self.hours <= 0:
            raise ValueError("spec.hours must be positive")
        if self.max_samples_per_dimm < 1:
            raise ValueError("spec.max_samples_per_dimm must be at least 1")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"spec.engine {self.engine!r} not in {ENGINE_CHOICES}"
            )
        if len(set(self.platforms)) != len(self.platforms):
            raise ValueError("spec.platforms contains duplicates")
        unknown_platforms = set(self.platform_overrides) - set(self.platforms)
        if unknown_platforms:
            raise ValueError(
                f"platform_overrides for platforms not in spec.platforms: "
                f"{sorted(unknown_platforms)}"
            )
        for platform, overrides in self.platform_overrides.items():
            if not isinstance(overrides, dict):
                raise ValueError(
                    f"platform_overrides[{platform!r}] must be a dict"
                )
            unknown = set(overrides) - {"scale", "hours"}
            if unknown:
                raise ValueError(
                    f"platform_overrides[{platform!r}] has unknown keys "
                    f"{sorted(unknown)}; valid: ['hours', 'scale']"
                )
            for key, value in overrides.items():
                if not isinstance(value, (int, float)) or value <= 0:
                    raise ValueError(
                        f"platform_overrides[{platform!r}][{key!r}] must be "
                        f"a positive number"
                    )
        return self

    # -- overrides ---------------------------------------------------------

    def with_overrides(self, assignments: list[str] | tuple[str, ...]) -> "RunSpec":
        """Apply ``key=value`` strings (the CLI's ``--set``) with coercion.

        ``platform=`` is accepted as a singular alias for ``platforms=``
        (``repro run streaming_replay --set platform=k920``).

        Scenario parameters support **dotted paths with JSON values** that
        merge instead of clobbering, so nested payloads (per-platform model
        assignments, policy budgets) build up across repeated ``--set``::

            --set 'params.assignments={"k920": {"train_platform": "intel_purley"}}'
            --set params.budget.vm_migrate=2

        Values are parsed as JSON; a bare word falls back to a string, but
        anything that *starts* like JSON must parse — with the offending
        assignment named in the error.  Everything coerced here survives
        the spec's JSON round-trip (``to_json_file`` / ``from_json_file``)
        unchanged.
        """
        updates: dict = {}
        for assignment in assignments:
            key, sep, raw = assignment.partition("=")
            if not sep:
                raise ValueError(
                    f"bad --set {assignment!r}: expected key=value"
                )
            key = key.strip()
            raw = raw.strip()
            if key == "params" or key.startswith("params."):
                params = updates.get("params")
                if params is None:
                    params = copy.deepcopy(self.params)
                if key == "params":
                    params = _parse_params_object(raw, assignment)
                else:
                    path = key.split(".")[1:]
                    if not all(path):
                        raise ValueError(
                            f"bad --set {assignment!r}: empty segment in "
                            f"dotted params path"
                        )
                    _deep_set(
                        params, path, _coerce_json_value(raw, assignment),
                        assignment,
                    )
                updates["params"] = params
                continue
            canonical = "platforms" if key == "platform" else key
            updates[canonical] = _coerce(key, raw)
        return dataclasses.replace(self, **updates)

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["platforms"] = list(self.platforms)
        payload["models"] = list(self.models)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec keys {sorted(unknown)}; valid: {sorted(known)}"
            )
        data = dict(payload)
        for key in ("platforms", "models"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_json_file(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )


_FIELD_KINDS = {
    "scenario": "str",
    "engine": "str",
    "cache_dir": "optional_str",
    "platform": "tuple",  # singular alias for platforms
    "platforms": "tuple",
    "models": "tuple",
    "scale": "float",
    "hours": "float",
    "seed": "int",
    "max_samples_per_dimm": "int",
    "platform_overrides": "platform_overrides",
    "params": "json",
}


def _coerce(key: str, raw: str):
    """Parse one ``--set`` value according to the spec field's type."""
    kind = _FIELD_KINDS.get(key)
    if kind is None:
        raise ValueError(
            f"unknown RunSpec key {key!r}; valid: {sorted(_FIELD_KINDS)}"
        )
    if kind == "tuple":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "optional_str":
        return None if raw.lower() in ("", "none") else raw
    if kind == "platform_overrides":
        return _parse_platform_overrides(raw)
    if kind == "json":  # reached via programmatic _coerce("params", ...)
        return _parse_params_object(raw, f"params={raw}")
    return raw


def _parse_params_object(raw: str, assignment: str) -> dict:
    """A whole ``params=`` assignment: must be a JSON object."""
    if not raw:
        return {}
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"bad --set {assignment!r}: params must be a JSON object "
            f"({error})"
        ) from None
    if not isinstance(value, dict):
        raise ValueError(
            f"bad --set {assignment!r}: params must be a JSON object, got "
            f"{type(value).__name__}"
        )
    return value


def _coerce_json_value(raw: str, assignment: str):
    """One dotted-path params value: JSON, with a bare-string fallback.

    ``0.5`` -> float, ``true`` -> bool, ``{"a": 1}`` -> dict,
    ``lightgbm`` -> the string itself.  Anything that *starts* like JSON
    (brace, bracket, quote, digit, sign) but fails to parse raises — a
    truncated object must not silently become a string.
    """
    if not raw:
        return ""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as error:
        if raw[0] in "{[\"-+." or raw[0].isdigit():
            raise ValueError(
                f"bad --set {assignment!r}: value is not valid JSON "
                f"({error}); quote strings as \"...\""
            ) from None
        return raw


def _deep_set(params: dict, path: list[str], value, assignment: str) -> None:
    """Set ``params[path[0]][path[1]]... = value``, creating dicts."""
    node = params
    for segment in path[:-1]:
        child = node.get(segment)
        if child is None:
            child = {}
            node[segment] = child
        elif not isinstance(child, dict):
            raise ValueError(
                f"bad --set {assignment!r}: params.{segment} is "
                f"{type(child).__name__}, cannot descend into it"
            )
        node = child
    node[path[-1]] = value


def _parse_platform_overrides(raw: str) -> dict:
    """``k920:scale=0.5,k920:hours=1440`` -> ``{"k920": {...}}``.

    A JSON object is accepted as well (the round-trip form).
    """
    raw = raw.strip()
    if not raw:
        return {}
    if raw.startswith("{"):
        return json.loads(raw)
    overrides: dict[str, dict] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        target, sep, assignment = entry.partition(":")
        key, sep2, value = assignment.partition("=")
        if not sep or not sep2:
            raise ValueError(
                f"bad platform override {entry!r}: expected "
                f"platform:key=value"
            )
        try:
            number = float(value)
        except ValueError:
            raise ValueError(
                f"bad platform override {entry!r}: {key.strip()!r} must be "
                f"numeric, got {value!r}"
            ) from None
        overrides.setdefault(target.strip(), {})[key.strip()] = number
    return overrides
