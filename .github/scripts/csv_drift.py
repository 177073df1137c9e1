"""Per-column drift between two directories of per-iteration CSVs.

    python .github/scripts/csv_drift.py BASE_DIR HEAD_DIR NAME [NAME ...]

For each NAME, reads NAME_iterations.csv from both directories and prints a
Markdown table with one line per column: how many rows differ as text, and
the largest |head - base| over the rows both runs reached.  A row only one
run reached counts as differing; so does a cell that is "nan" on one side
only, with |delta| inf.  A missing CSV is reported as such.  A second table
gives the outcome, iterations, capped_starts and wall_time of
NAME_summary.json, base against head: these live only in the summary, and
wall_time shows what a change costs.  Always exits 0: the report informs,
it does not gate.
"""

import csv
import json
import math
import sys
from pathlib import Path


def _rows(path: Path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _delta(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(y - x)


SUMMARY_FIELDS = ("outcome", "iterations", "capped_starts", "wall_time")


def summary_report(base_dir: Path, head_dir: Path, name: str) -> str:
    docs = []
    for d in (base_dir, head_dir):
        path = d / f"{name}_summary.json"
        docs.append(json.loads(path.read_text()) if path.exists() else {})
    lines = ["| summary field | base | head |", "| --- | --- | --- |"]
    for field in SUMMARY_FIELDS:
        base, head = (doc.get(field, "missing") for doc in docs)
        lines.append(f"| {field} | {base} | {head} |")
    return "\n".join(lines) + "\n"


def report(base_dir: Path, head_dir: Path, name: str) -> str:
    title = f"### CSV drift: {name}"
    paths = [d / f"{name}_iterations.csv" for d in (base_dir, head_dir)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        return f"{title}\n\nmissing: {', '.join(missing)}\n"
    (header, *base), (head_header, *head) = _rows(paths[0]), _rows(paths[1])
    if header != head_header:
        return f"{title}\n\nheaders differ: {header} vs {head_header}\n"
    lines = [title, "", f"rows: base {len(base)}, head {len(head)}", "",
             "| column | rows differing | largest abs delta |", "| --- | --- | --- |"]
    extra = abs(len(base) - len(head))
    for j, column in enumerate(header):
        pairs = [(b[j], h[j]) for b, h in zip(base, head)]
        differing = sum(b != h for b, h in pairs) + extra
        largest = max((_delta(b, h) for b, h in pairs if b != h), default=0.0)
        lines.append(f"| {column} | {differing} | {largest:.3g} |")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    base_dir, head_dir, *names = argv
    base_dir, head_dir = Path(base_dir), Path(head_dir)
    for name in names:
        print(report(base_dir, head_dir, name))
        print(summary_report(base_dir, head_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
