"""The package calls numpy's kernels directly, never through its Python wrappers.

np.sum, np.max and the rest first run about 1 us of Python argument
handling (numpy's `_wrapreduction`) and then reach the same ufunc reduction
that the method calls directly, so on the solver's vectors of 8 to 200
entries the function form more than doubles a reduction's cost for the
same bits.  The same holds for the other wrappers scanned here:
np.linalg.norm without an `ord` is the square root of x.dot(x) or of
(x * x).sum(axis=...) (`space.norm2`, `space.norm2_rows`), np.clip a
minimum of a maximum, np.vstack, np.column_stack and np.append each a
concatenate, and np.zeros_like an np.zeros.  functools.cached_property
(Python 3.11) takes a lock on every first read; `space.kept` keeps a value
without one.  The scan parses each module, so comments and docstrings may
still name the wrapper forms.  tests/_reference.py is the reference
implementation and is not scanned.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybrideq"
FUNCTION_FORMS = {"sum", "max", "min", "any", "all", "argmax", "argmin", "flatnonzero"}
WRAPPERS = {"clip", "vstack", "column_stack", "append", "zeros_like"}


def _is_numpy(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _wrapper_calls(source: str) -> list:
    """(line, name) of each call np.<reduction or wrapper>(...), of each
    np.linalg.norm(...) without an ord, and of each use of
    functools.cached_property."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names if a.name == "cached_property"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cached_property"
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append((node.lineno, "cached_property"))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr in FUNCTION_FORMS | WRAPPERS and _is_numpy(func.value):
            found.append((node.lineno, func.attr))
        elif (
            func.attr == "norm"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
            and _is_numpy(func.value.value)
            and len(node.args) < 2
            and not any(k.arg == "ord" for k in node.keywords)
        ):
            found.append((node.lineno, "linalg.norm"))
    return sorted(found)


def test_the_scan_finds_function_forms_in_code_only():
    source = (
        '"""np.sum(x) and np.linalg.norm(x) in a docstring."""\n'
        "# np.max(x), np.clip(x, 0, 1) and functools.cached_property in a comment\n"
        "from functools import cached_property, partial\n"
        "y = x.sum() + np.sum(x) + numpy.linalg.norm(x)\n"
        "z = np.flatnonzero(m)[np.argmin(r)]\n"
        "n = np.linalg.norm(a, 2) + np.linalg.norm(a, ord=1) + np.linalg.norm(r, axis=1)\n"
        "w = np.vstack([a, b]) + np.column_stack([a, b]) + np.append(a, 1.0)\n"
        "v = np.clip(a, 0.0, 1.0) + np.zeros_like(a) + np.concatenate((a, b))\n"
        "kept = functools.cached_property(f)\n"
    )
    assert _wrapper_calls(source) == [
        (3, "cached_property"),
        (4, "linalg.norm"),
        (4, "sum"),
        (5, "argmin"),
        (5, "flatnonzero"),
        (6, "linalg.norm"),
        (7, "append"),
        (7, "column_stack"),
        (7, "vstack"),
        (8, "clip"),
        (8, "zeros_like"),
        (9, "cached_property"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_form_reductions(module):
    calls = _wrapper_calls((PACKAGE / module).read_text())
    assert not calls, f"{module}: call the kernels these wrap directly: {calls}"
