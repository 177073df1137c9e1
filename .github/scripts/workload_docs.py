"""Write the benchmark's workload documents at its default seed 7 as scenario files.

    python .github/scripts/workload_docs.py OUT_DIR

The documents are the ones perfbench/workloads.py gives the program at run
seed 7: shift_banach, shift_wide, hilbert_audit's instance 0 and box_starts'
instances 0, 1 and 2, one per criterion-5 start.  workloads.py is only
read.  The files are OUT_DIR/NAME.json, NAME being the document's own name
(e.g. box_starts_1), and the names are printed one per line.
"""

import importlib.util
import json
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"
SEED = 7
#: workload name -> the instances written
INSTANCES = {"shift_banach": 1, "shift_wide": 1, "hilbert_audit": 1, "box_starts": 3}


def _workloads():
    sys.dont_write_bytecode = True  # leave no cache beside workloads.py
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def workload_documents():
    workloads = _workloads()
    for name, count in INSTANCES.items():
        for k in range(count):
            yield workloads[name].instance(SEED, k).doc


def main(argv) -> int:
    (out,) = argv
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for doc in workload_documents():
        (out / f"{doc['name']}.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(doc["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
