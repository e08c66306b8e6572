"""Structured, machine-readable reports with a stable schema.

Reports are canonical JSON: keys sorted, floats rendered by repr, no
timestamps or environment data, so identical runs produce identical
bytes. The envelope carries the schema version, the command, the resolved
configuration (seed, tolerances, ansatz description) and the scenario's
asserted assumptions.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

SCHEMA = "equihol-report/1"


def _plain(value: Any):
    # A CircleValue is a dataclass too, but is reported as its bare value.
    if hasattr(value, "value") and type(value).__name__ == "CircleValue":
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def envelope(command: str, scenario: str, config: dict, assumptions: dict, result) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "scenario": scenario,
        "config": _plain(config),
        "assumptions": _plain(assumptions),
        "result": _plain(result),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"

