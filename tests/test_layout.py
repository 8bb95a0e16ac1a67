"""Module layout: no sclab module imports another module's private names.

Every file under src/sclab is parsed with ast; a relative import of a
name with a leading underscore is reported with its file and line.
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
