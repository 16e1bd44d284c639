"""Package surface: the public export list and the module import boundaries."""

import ast
import importlib
from pathlib import Path

import ttlr

PACKAGE_DIR = Path(ttlr.__file__).parent

# in dependency order, as ttlr/__init__.py star-imports them
MODULES = ("tempered", "partition", "loss", "optimizer", "data", "model", "analysis",
           "verify", "experiment")


def test_all_names_resolve():
    missing = [name for name in ttlr.__all__ if not hasattr(ttlr, name)]
    assert missing == []
    assert len(set(ttlr.__all__)) == len(ttlr.__all__)


def test_root_exports_the_module_lists_in_order():
    modules = [importlib.import_module(f"ttlr.{name}") for name in MODULES]
    assert ttlr.__all__ == [name for module in modules for name in module.__all__]
    # every module with public names is listed
    listed = {path.stem for path in PACKAGE_DIR.glob("*.py") if "__all__" in path.read_text()}
    assert listed - {"__init__"} == set(MODULES)


def test_each_exported_name_is_defined_in_its_module():
    for name in MODULES:
        module = importlib.import_module(f"ttlr.{name}")
        for public in module.__all__:
            value = getattr(module, public)
            home = getattr(value, "__module__", module.__name__)
            assert home == module.__name__, f"{name}.{public} is defined in {home}"
            assert getattr(ttlr, public) is value


def test_no_name_is_exported_by_two_modules():
    seen = {}
    for name in MODULES:
        for public in importlib.import_module(f"ttlr.{name}").__all__:
            assert public not in seen, f"{public} is exported by {seen[public]} and {name}"
            seen[public] = name


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
