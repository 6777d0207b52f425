"""Nothing runs the demos, so check that every name they import from kfplab
still exists."""

import ast
import importlib
import pathlib

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_demo_imports_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kfplab":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert not missing
