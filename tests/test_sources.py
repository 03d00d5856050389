"""Static checks of the package sources, read with ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "umbilic_lab"


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that no name in
    it reads (``np.linalg`` reads ``np``)."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


# __init__.py is left out: its imports are the package's exports
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_module_level_import_goes_unused(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_what_nothing_reads():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.pi + sep\n"
    assert unused_imports(source) == ["math", "path"]
