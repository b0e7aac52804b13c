"""magswim reaches numpy through its public names only."""
import ast
from pathlib import Path

import pytest

import magswim

SOURCES = sorted(Path(magswim.__file__).parent.glob("*.py"))


def private_numpy_names(tree: ast.AST) -> list[str]:
    """The private numpy modules and names that ``tree`` imports, or reaches
    as attributes of a name bound to numpy: each dotted name up to its
    first segment starting with ``_``, once, in the order found."""
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    names.append(alias.name)
                    bound[alias.asname or "numpy"] = (
                        alias.name if alias.asname else "numpy")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "numpy"):
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                names.append(".".join([bound[node.id]] + parts))
    found = []
    for name in names:
        parts = name.split(".")
        private = [i for i, part in enumerate(parts) if part.startswith("_")]
        if private:
            found.append(".".join(parts[:private[0] + 1]))
    return list(dict.fromkeys(found))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_private_numpy_name(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert private_numpy_names(tree) == []


@pytest.mark.parametrize("code, found", [
    ("from numpy.linalg import LinAlgError, _umath_linalg",
     ["numpy.linalg._umath_linalg"]),
    ("import numpy.linalg._umath_linalg as lapack",
     ["numpy.linalg._umath_linalg"]),
    ("from numpy._core import umath", ["numpy._core"]),
    ("from numpy import _NoValue", ["numpy._NoValue"]),
    ("import numpy as np\nnp.linalg._umath_linalg.solve(a, b)",
     ["numpy.linalg._umath_linalg"]),
    ("import numpy\nnumpy.core._multiarray_umath",
     ["numpy.core._multiarray_umath"]),
    ("from numpy import linalg as la\nla._umath_linalg.inv(m)",
     ["numpy.linalg._umath_linalg"]),
    ("import numpy as np\nnp.linalg.solve(a, b)", []),
    ("from ._private import _name\n_name._x", []),
    ("import collections\ncollections._chain_from_iterable", []),
])
def test_private_names_are_found(code, found):
    assert private_numpy_names(ast.parse(code)) == found
