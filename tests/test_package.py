"""Package surface: the public export list and the module import boundaries."""

import ast
from pathlib import Path

import ttlr

PACKAGE_DIR = Path(ttlr.__file__).parent


def test_all_names_resolve():
    missing = [name for name in ttlr.__all__ if not hasattr(ttlr, name)]
    assert missing == []
    assert len(set(ttlr.__all__)) == len(ttlr.__all__)


def test_modules_import_no_private_names_from_each_other():
    # a helper another module needs is public in its own module
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "ttlr"
            if not internal:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []
