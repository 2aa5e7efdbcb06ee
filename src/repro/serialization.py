"""JSON (de)serialization for configs and results.

Experiment reproducibility plumbing: dump a
:class:`repro.core.config.SimulationConfig` or a
:class:`repro.core.results.RunResult` to JSON and rebuild configs from
it, so sweeps can be scripted, archived and diffed.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.core.config import SimulationConfig
from repro.core.results import RunResult


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """A JSON-able dict snapshot of a config."""
    data = dataclasses.asdict(config)
    # Tuples of tuples (protection profiles) become lists in JSON; keep
    # a canonical list-of-lists form.
    data["protection_profiles"] = [list(p) for p in config.protection_profiles]
    if config.faults is not None:
        data["faults"] = config.faults.to_dict()
    return data


def config_to_json(config: SimulationConfig, indent: int = 2) -> str:
    """Pretty-printed JSON text for a config."""
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_to_canonical_json(config: SimulationConfig) -> str:
    """Key-stable single-line JSON for a config.

    The fingerprint substrate for :mod:`repro.cache`: sorted keys, no
    whitespace variance, tuples normalised to lists — two configs that
    compare equal always serialize to the same bytes.
    """
    return json.dumps(
        config_to_dict(config), sort_keys=True, separators=(",", ":")
    )


def config_from_dict(data: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a config from a dict (rejects unknown fields)."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, got {type(data).__name__}")
    payload = dict(data)
    if "protection_profiles" in payload:
        payload["protection_profiles"] = tuple(
            tuple(profile) for profile in payload["protection_profiles"]
        )
    for key in ("dev_rate_kbps", "churn_phi"):
        if key in payload:
            payload[key] = tuple(payload[key])
    field_names = {field.name for field in dataclasses.fields(SimulationConfig)}
    unknown = set(payload) - field_names
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return SimulationConfig(**payload)


def config_from_json(text: str) -> SimulationConfig:
    """Rebuild a config from JSON text."""
    return config_from_dict(json.loads(text))


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """A JSON-able dict snapshot of a RunResult (nested dataclasses)."""
    return _jsonable(result)


def result_to_json(result: RunResult, indent: int = 2) -> str:
    """Pretty-printed JSON text for a RunResult."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from its dict snapshot.

    Exact inverse of :func:`result_to_dict` — round-tripping a result
    through dict/JSON and back re-serializes byte-identically, which is
    what lets :mod:`repro.cache` serve stored runs in place of live ones.
    """
    from repro.core.resources import ResourceReport
    from repro.core.results import (
        AttackStatsSummary,
        ChurnSummary,
        RecruitmentStats,
    )

    payload = dict(data)
    payload["recruitment"] = RecruitmentStats(**payload["recruitment"])
    payload["attack"] = AttackStatsSummary(**payload["attack"])
    payload["churn"] = ChurnSummary(**payload["churn"])
    payload["resources"] = ResourceReport(**payload["resources"])
    payload["rate_series_kbps"] = list(payload.get("rate_series_kbps", ()))
    return RunResult(**payload)


def result_from_json(text: str) -> RunResult:
    """Rebuild a RunResult from JSON text."""
    return result_from_dict(json.loads(text))


def rows_to_csv(rows) -> str:
    """Render sweep rows (list of dicts) as CSV text."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(column, "")) for column in columns))
    return "\n".join(lines) + "\n"
