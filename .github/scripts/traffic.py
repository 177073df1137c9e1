"""Solve the traffic cases on two source trees and list the cases that differ.

    python .github/scripts/traffic.py BASE_SRC HEAD_SRC OUT

BASE_SRC and HEAD_SRC are the src/ directories of two checkouts.  The cases
are the documents of DOCUMENTS in .github/workflows/tier1.yml, the shift
grid (shift_grid.py, written from HEAD_SRC) and the benchmark's six seed-7
workload documents (workload_docs.py), each solved at its own seed, at
seed 11 and at seed 4294967296 = 2^32, on both trees, one
`python -m hybrideq.cli solve` subprocess per solve.  Seed s writes
OUT/drift_base_s and OUT/drift_head_s (s being default, 11 or 4294967296),
the directories csv_drift.py reads.

One line is printed for each case whose exit code, NAME_iterations.csv
bytes, NAME_summary.json (less wall_time) or stdout (less its wall_time
line) differ between the trees, then a count of the cases that differ.
The names of the grid and workload documents, which csv_drift.py takes,
are written to OUT/grid_names and OUT/workload_names.  Always exits 0:
the report informs, it does not gate.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
WORKFLOW = SCRIPTS.parent / "workflows" / "tier1.yml"
SEEDS = ("default", "11", "4294967296")
# the line of solve's stdout report that holds the solve's wall time
WALL_TIME_LINE = re.compile(r'^  "wall_time": .*\n', re.MULTILINE)


def ci_documents() -> list:
    """The scenario of each `scenario:exit_code` entry of the workflow's
    folded DOCUMENTS value."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "DOCUMENTS: >-")
    indent = len(lines[start]) - len(lines[start].lstrip())
    entries = []
    for line in lines[start + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        entries.extend(line.split())
    return [entry.rsplit(":", 1)[0] for entry in entries]


def _python(src: Path, *args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True)


def _written(src: Path, script: str, out: Path) -> list:
    """Run a document writer of this directory; the paths of the documents
    it wrote, one per name it printed."""
    done = _python(src, SCRIPTS / script, out)
    done.check_returncode()
    return [out / f"{name}.json" for name in done.stdout.split()]


def _solve(src: Path, scenario, seed: str, out: Path) -> tuple:
    """The solve's exit code and its stdout less the wall_time line."""
    seed_args = () if seed == "default" else ("--seed", seed)
    done = _python(
        src, "-m", "hybrideq.cli", "solve", "--scenario", scenario, *seed_args, "--out", out
    )
    return done.returncode, WALL_TIME_LINE.sub("", done.stdout)


def _summary(path: Path):
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    doc.pop("wall_time", None)
    return doc


def _bytes(path: Path):
    return path.read_bytes() if path.exists() else None


def main(argv) -> int:
    base_src, head_src, out = map(Path, argv)
    grid = _written(head_src, "shift_grid.py", out / "shift_grid")
    workloads = _written(head_src, "workload_docs.py", out / "workload_docs")
    (out / "grid_names").write_text("".join(f"{p.stem}\n" for p in grid))
    (out / "workload_names").write_text("".join(f"{p.stem}\n" for p in workloads))
    scenarios = [*ci_documents(), *grid, *workloads]
    cases = differing = 0
    for seed in SEEDS:
        dirs = {tree: out / f"drift_{tree}_{seed}" for tree in ("base", "head")}
        for scenario in scenarios:
            name = Path(scenario).stem
            (base_code, base_out), (head_code, head_out) = (
                _solve(src, scenario, seed, dirs[tree])
                for tree, src in (("base", base_src), ("head", head_src))
            )
            diffs = []
            if base_code != head_code:
                diffs.append(f"exit code {base_code} -> {head_code}")
            csvs = [_bytes(dirs[tree] / f"{name}_iterations.csv") for tree in dirs]
            if csvs[0] != csvs[1]:
                diffs.append("CSV bytes")
            summaries = [_summary(dirs[tree] / f"{name}_summary.json") for tree in dirs]
            if summaries[0] != summaries[1]:
                diffs.append("summary")
            if base_out != head_out:
                diffs.append("stdout")
            cases += 1
            if diffs:
                differing += 1
                print(f"{name} (seed {seed}): {', '.join(diffs)}")
    print(f"{differing} of {cases} cases differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
