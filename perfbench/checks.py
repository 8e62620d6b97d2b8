"""Output checks: invariants on every seed, a stored reference on the
default seed.

Every output the benchmark checks is a text file written by the program
(CLI runs) or by the program's own writers (in-process runs), so one set
of checks covers both.  A reference summary splits a file into its
floating-point tokens and everything else: everything else (dates, labels,
integer counts, structure, row count) must match exactly, floats to a
relative 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

RISK_LABELS = {"high", "risky", "low", "green"}
REL_TOL = 1e-9
SAMPLES_PER_FILE = 64

# a float token as repr() prints it: it has a decimal point or an exponent,
# or is nan/inf; integers and dates stay in the exact part
_FLOAT = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|nan|inf)(?![\w.])"
)


class CheckError(Exception):
    """An output broke an invariant or differs from the reference."""


def _rows(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _finite(path, rows, fields):
    for i, row in enumerate(rows):
        for name in fields:
            if not math.isfinite(float(row[name])):
                raise CheckError(f"{path}: row {i + 1} {name}={row[name]}")


def _row_count(path, rows, expected):
    if len(rows) != expected:
        raise CheckError(f"{path}: {len(rows)} rows, expected {expected}")


def check_trajectory(path, days):
    rows = _rows(path)
    _row_count(path, rows, days)
    _finite(path, rows, [f for f in rows[0] if f != "date"])


def check_risk(path, days):
    rows = _rows(path)
    _row_count(path, rows, days)
    _finite(path, rows, ("M", "R0"))
    labels = {row["risk_level"] for row in rows}
    if not labels <= RISK_LABELS:
        raise CheckError(f"{path}: unknown risk labels {labels - RISK_LABELS}")
    footer = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# count_"):
            key, value = line[len("# count_"):].split("=")
            footer[key.strip()] = int(value)
    if set(footer) != RISK_LABELS or sum(footer.values()) != days:
        raise CheckError(f"{path}: footer counts {footer} do not sum to {days}")


def check_severity(path, days, x_max):
    rows = _rows(path)
    _row_count(path, rows, days)
    _finite(path, rows, ("M", "W"))
    for row in rows:
        if not 0 <= int(row["predicted_cases"]) <= x_max:
            raise CheckError(f"{path}: predicted_cases={row['predicted_cases']} "
                             f"outside 0..{x_max}")


def check_table(path, rows_expected, fields, lo=-math.inf, hi=math.inf):
    """CSV with ``rows_expected`` rows whose ``fields`` are finite and in
    [lo, hi]."""
    rows = _rows(path)
    _row_count(path, rows, rows_expected)
    _finite(path, rows, fields)
    for row in rows:
        for name in fields:
            if not lo <= float(row[name]) <= hi:
                raise CheckError(f"{path}: {name}={row[name]} outside [{lo}, {hi}]")


def check_finite_text(path):
    """Every float token in the file is finite."""
    bad = [t for t in _FLOAT.findall(Path(path).read_text())
           if not math.isfinite(float(t))]
    if bad:
        raise CheckError(f"{path}: non-finite values {bad[:3]}")


# --- reference summaries ----------------------------------------------------

def _text_for_reference(path: Path) -> str:
    text = path.read_text()
    if path.name == "manifest.json":
        manifest = json.loads(text)
        manifest.pop("created_at", None)
        text = json.dumps(manifest, sort_keys=True)
    return text


def summarize(path) -> dict:
    """Exact digest of a file's non-float text plus a float summary: the
    count, two order-sensitive sums and an evenly spaced sample."""
    text = _text_for_reference(Path(path))
    floats = [float(t) for t in _FLOAT.findall(text)]
    skeleton = _FLOAT.sub("~", text)
    step = max(1, math.ceil(len(floats) / SAMPLES_PER_FILE))
    return {
        "skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(),
        "n_floats": len(floats),
        "abs_sum": math.fsum(abs(v) for v in floats),
        "ramp_sum": math.fsum(abs(v) * (i + 1) for i, v in enumerate(floats)),
        "sample": floats[::step],
    }


def summarize_dir(directory) -> dict:
    directory = Path(directory)
    return {str(p.relative_to(directory)): summarize(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _close(a, b) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare(actual: dict, reference: dict) -> list:
    """Names of files that are missing, extra or differ from the reference."""
    bad = sorted(set(actual) ^ set(reference))
    for name in sorted(set(actual) & set(reference)):
        a, r = actual[name], reference[name]
        same = (a["skeleton_sha256"] == r["skeleton_sha256"]
                and a["n_floats"] == r["n_floats"]
                and len(a["sample"]) == len(r["sample"])
                and _close(a["abs_sum"], r["abs_sum"])
                and _close(a["ramp_sum"], r["ramp_sum"])
                and all(_close(x, y) for x, y in zip(a["sample"], r["sample"])))
        if not same:
            bad.append(name)
    return bad
