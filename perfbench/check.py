"""Report check: the report schema, a stored reference, and exact plans.

A report's ``results`` are compared field by field with a reference report.
Flags, integers and strings must be equal; floats must agree to ``RTOL``
relative or ``ATOL`` absolute. ``config`` is left out because it embeds the
report's own path.
"""

from __future__ import annotations

import hashlib
import json
import math

from jsonschema import Draft202012Validator

# Moving BLAS from 2 threads to 1 moved only the Monte-Carlo critical values
# (by up to 6.4e-8 relative on compare_n20k, 6.7e-9 on the gates_hte het test,
# seeds 0-7) and the statistics T (by up to 8e-16); every other field stayed
# bitwise equal, and 4 threads matched 2 bitwise. The tolerance sits just
# above that drift.
RTOL = 1e-7
# Round-off-level values, such as a solver's residual norm (~1e-17), carry no
# relative precision: any change of summation order moves them by 100%.
ATOL = 1e-12


def schema_errors(report: dict, schema: dict) -> list[str]:
    validator = Draft202012Validator(schema)
    return [f"schema: /{'/'.join(map(str, e.absolute_path))}: {e.message}"
            for e in validator.iter_errors(report)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two JSON values, one line each; empty if they match."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: missing" for k in sorted(want.keys() - got.keys())]
        out += [f"{path}/{k}: unexpected" for k in sorted(got.keys() - want.keys())]
        for k in sorted(want.keys() & got.keys()):
            out += diff(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff(g, w, f"{path}/{i}")
        return out
    # report floats are written at 17 significant digits, so an integral float
    # reads back as an int; compare as floats unless both sides are ints
    if _is_number(got) and _is_number(want) and (isinstance(got, float) or isinstance(want, float)):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != {want!r} (rel {abs(got - want) / max(abs(got), abs(want)):.3g})"]
    if type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def plan_digest(plan: dict) -> str:
    """sha256 of a plan's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(report: dict) -> dict:
    """What the stored reference keeps of a report."""
    entry = {"results": report["results"]}
    if "plan" in report:
        entry["plan_sha256"] = plan_digest(report["plan"])
    return entry


def check_report(report: dict, schema: dict, reference: dict | None) -> list[str]:
    """Problems with a report: schema violations and differences from the
    reference entry (see :func:`reference_entry`), if one is given."""
    problems = schema_errors(report, schema)
    if reference is None or problems:
        return problems
    got = reference_entry(report)
    if "plan_sha256" in reference and got.get("plan_sha256") != reference["plan_sha256"]:
        problems.append("plan: differs from the reference plan")
    return problems + diff(got["results"], reference["results"], "/results")
