"""Write lp_shift_example at several exponents and dimensions as scenario files.

    PYTHONPATH=src python .github/scripts/shift_grid.py OUT_DIR

Each document is the built-in lp_shift_example with its exponent, its
dimension (and the length of its zero reference solution) and a max_outer
of 30 replaced; everything else, the seed among it, is the built-in's.  The
files are OUT_DIR/NAME.json, NAME being e.g. lp_shift_p15_d8 for exponent
1.5 at d = 8, and the names are printed one per line.
"""

import copy
import json
import sys
from pathlib import Path

from hybrideq import BUILTIN_SCENARIOS

EXPONENTS = (1.5, 3.0, 10.0)
DIMENSIONS = (8, 32)
MAX_OUTER = 30


def grid_documents():
    for exponent in EXPONENTS:
        for dimension in DIMENSIONS:
            doc = copy.deepcopy(BUILTIN_SCENARIOS["lp_shift_example"])
            doc["name"] = f"lp_shift_p{exponent:g}_d{dimension}".replace(".", "")
            doc["space"].update(dimension=dimension, exponent=exponent)
            doc["bundle"]["reference_solution"] = [0.0] * dimension
            doc["config"]["max_outer"] = MAX_OUTER
            yield doc


def main(argv) -> int:
    (out,) = argv
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for doc in grid_documents():
        (out / f"{doc['name']}.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(doc["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
