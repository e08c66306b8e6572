"""Structured, machine-readable reports with a stable schema.

Reports are canonical JSON: keys sorted, floats rendered by repr, no
timestamps or environment data, so identical runs produce identical
bytes. The envelope carries the schema version, the command, the resolved
configuration (seed, tolerances, ansatz description) and the scenario's
asserted assumptions.
"""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

SCHEMA = "equihol-report/1"


def _plain(value: Any):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    # A CircleValue is a dataclass too, but is reported as its bare value.
    if hasattr(value, "value") and type(value).__name__ == "CircleValue":
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
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
    """``json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte, for a report with string keys (as :func:`envelope` makes
    it), without the json module's pure-Python indenting encoder."""
    return _encode(report, "\n") + "\n"


def _encode(value, pad: str) -> str:
    """``value`` as that call writes it after the line break and indent ``pad``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_encode(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1] if items else brackets
