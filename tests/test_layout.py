"""Module layout: no sclab module imports another module's private
names, and only charts runs stencil loops.

Every file under src/sclab is parsed with ast; a relative import of a
name with a leading underscore, or a call of `diff_array` outside
charts.py, is reported with its file and line.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sclab"


def private_imports(path: Path) -> list:
    """`file:line: from .module import _name` for each offending import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{alias.lineno}: from "
                                 f"{'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
    return found


def test_no_private_cross_module_imports():
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "spectral.py" in paths
    found = [line for path in paths for line in private_imports(path)]
    assert not found, "private names imported across modules:\n" + \
        "\n".join(found)


def test_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os\nfrom .charts import (\n    ScalarField,\n"
                      "    _hidden,\n)\nfrom numpy import _private\n")
    assert private_imports(sample) == [
        "sample.py:4: from .charts import _hidden"]


def stencil_calls(path: Path) -> list:
    """`file:line: diff_array(...)` for each call of the stencil kernel."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name == "diff_array":
                found.append(node.lineno)
    return [f"{path.name}:{line}: diff_array(...)" for line in sorted(found)]


def test_stencil_loops_only_in_charts():
    paths = sorted(SOURCE.glob("*.py"))
    found = [line for path in paths if path.name != "charts.py"
             for line in stencil_calls(path)]
    assert not found, "diff_array called outside charts.py:\n" + \
        "\n".join(found)
    assert stencil_calls(SOURCE / "charts.py")


def test_stencil_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import charts\nfrom .charts import diff_array\n"
                      "a = diff_array(v, g, 0, 1)\n"
                      "b = charts.diff_array(v, g, 1, 2)\n"
                      "c = charts.gradient(v, g)\n")
    assert stencil_calls(sample) == [
        "sample.py:3: diff_array(...)", "sample.py:4: diff_array(...)"]
