"""The package's modules import only public names from one another, so the
factor-tensor and coefficient layout stays private to ``linalg``."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "walshlab"


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("walshlab"):
            continue  # another package
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    assert [line for path in modules for line in _private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .linalg import _gram_norms, kron\nfrom . import __version__\n")
    assert _private_imports(module) == ["module.py:1: from .linalg import _gram_norms"]
