"""The package calls numpy's reductions as ndarray methods, never as functions.

np.sum, np.max and the rest first run about 1 us of Python argument
handling (numpy's `_wrapreduction`) and then reach the same ufunc reduction
that the method calls directly, so on the solver's vectors of 8 to 200
entries the function form more than doubles a reduction's cost for the
same bits.  The scan parses each module, so comments and docstrings may still
name the function forms.  tests/_reference.py is the reference
implementation and is not scanned.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybrideq"
FUNCTION_FORMS = {"sum", "max", "min", "any", "all", "argmax", "argmin", "flatnonzero"}


def _function_form_calls(source: str) -> list:
    """(line, name) of each call np.<reduction>(...) or numpy.<reduction>(...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FUNCTION_FORMS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, node.func.attr))
    return found


def test_the_scan_finds_function_forms_in_code_only():
    source = (
        '"""np.sum(x) in a docstring."""\n'
        "# np.max(x) in a comment\n"
        "y = x.sum() + np.sum(x)\n"
        "z = np.flatnonzero(m)[np.argmin(r)]\n"
    )
    assert _function_form_calls(source) == [(3, "sum"), (4, "flatnonzero"), (4, "argmin")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_form_reductions(module):
    calls = _function_form_calls((PACKAGE / module).read_text())
    assert not calls, f"{module}: call these as ndarray methods: {calls}"
