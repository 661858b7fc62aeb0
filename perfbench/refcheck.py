"""Summaries of a CLI run's outputs and their comparison with a reference.

A summary keeps, per output file, values canonicalised to `repr(float)`:

* a sweep CSV (it has `axis` and `metric_name` columns) keeps every other
  column's value for each (axis, metric_name) row;
* any other CSV keeps a SHA-256 digest of each column;
* `verification.json` keeps each claim's `passed` flag;

plus the CLI exit code. `diff` walks the reference and looks each entry up
by name in the actual summary, so an output that gains a file, a column or
a claim still matches, while any changed value, however small, does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SWEEP_KEYS = ("axis", "metric_name")


def canonical(text: str) -> str:
    """Exact, format-independent spelling of a numeric CSV cell."""
    try:
        return repr(float(text))
    except ValueError:
        return text


def summarize_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = list(reader.fieldnames or []), list(reader)
    if all(k in header for k in SWEEP_KEYS):
        values = [c for c in header if c not in SWEEP_KEYS]
        return {
            "rows": {
                f"{canonical(r['axis'])}|{r['metric_name']}": {
                    c: canonical(r[c]) for c in values
                }
                for r in rows
            }
        }
    columns = {}
    for c in header:
        text = "\n".join(canonical(r[c]) for r in rows)
        columns[c] = {"rows": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {"columns": columns}


def summarize(out_dir: Path, exit_code: int) -> dict:
    files = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        files[path.name] = summarize_csv(path)
    verification = Path(out_dir) / "verification.json"
    if verification.exists():
        report = json.loads(verification.read_text(encoding="utf-8"))
        files[verification.name] = {
            "passed": {claim: bool(entry.get("passed")) for claim, entry in report.items()}
        }
    return {"exit_code": exit_code, "files": files}


def diff(expected, actual, where: str = "") -> list[str]:
    """Mismatches between a reference and an actual summary, by name."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping, got {actual!r}"]
        problems = []
        for key, value in expected.items():
            here = f"{where}/{key}"
            if key not in actual:
                problems.append(f"{here}: missing")
            else:
                problems.extend(diff(value, actual[key], here))
        return problems
    if expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


def dropped_fraction(summary: dict, requested: int) -> float:
    """Share of requested sweep snapshots left out as unconverged (CSV `n`)."""
    dropped = 0
    total = 0
    for entry in summary["files"].values():
        per_value = {
            key.split("|")[0]: float(row["n"])
            for key, row in entry.get("rows", {}).items()
        }
        for n in per_value.values():
            dropped += requested - int(n)
            total += requested
    return dropped / total if total else 0.0


def rows_written(summary: dict) -> int:
    """Data rows in every CSV the run wrote."""
    count = 0
    for entry in summary["files"].values():
        if "rows" in entry:
            count += len(entry["rows"])
        elif "columns" in entry:
            count += max((c["rows"] for c in entry["columns"].values()), default=0)
    return count
