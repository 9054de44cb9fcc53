"""Report serialization: canonical JSON (sorted keys, no spaces, each float
written as its shortest round-trip ``repr``), non-finite values nulled with
reason codes, and atomic writes."""

from __future__ import annotations

import json
import math
import os
import tempfile

SCHEMA_VERSION = "1.0.0"


def sanitize(obj):
    """Replace non-finite numbers with None; returns (cleaned, reasons_by_path)."""
    nulls: dict[str, str] = {}
    return _sanitize(obj, "", nulls), nulls


def _sanitize(value, path, nulls):
    if isinstance(value, dict):
        return {k: _sanitize(v, f"{path}/{k}", nulls) for k, v in value.items()}
    if isinstance(value, (list, tuple)):  # a plain int or finite float needs no path
        return [v if type(v) is int or type(v) is float and math.isfinite(v)
                else _sanitize(v, f"{path}/{i}", nulls) for i, v in enumerate(value)]
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _sanitize(value.item(), path, nulls)
    if isinstance(value, float):
        if math.isnan(value):
            nulls[path] = "nan"
            return None
        if math.isinf(value):
            nulls[path] = "inf" if value > 0 else "-inf"
            return None
        return value
    return value


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


def write_report(path: str, payload: dict) -> dict:
    """Sanitize, serialize, and atomically write a report. Returns the payload."""
    cleaned, nulls = sanitize(payload)
    if nulls:
        cleaned["nulls"] = {k: v for k, v in sorted(nulls.items())}
    cleaned.setdefault("schema_version", SCHEMA_VERSION)
    text = dumps(cleaned) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return cleaned
