"""Module layout: no sclab module imports another module's private
names, only charts runs stencil loops, inverts a metric, solves a dense
system or builds a grid, only charts (snapshots) and cli (job outputs)
write files, only cli decides when a snapshot is written, spectral
embeds no graph, builds no curvature bundle and inverts no metric of
its own, hypersurface and spectral read face rows as views, systole
writes its cover graph straight into CSR arrays and searches it from
one place, and no integral inverts a metric: `integrate`,
`f_functional`, `weighted_area` and `weighted_area_variation` read the
volume density its metric's owner kept from the one inversion it made.

Every file under src/sclab is parsed with ast; a relative import of a
name with a leading underscore, a call of `diff_array`,
`np.linalg.inv`, `np.linalg.det`, `np.linalg.solve` or `ChartGrid`
outside charts.py (so no dense `np.linalg` call is left outside it), an
`open(...)` for writing outside charts.py and cli.py, a call of
`write_snapshot` outside cli.py, a call of `embed_graph`,
`curvature_bundle` or `inverse_and_determinant` in spectral.py, an
`np.take` in hypersurface.py or spectral.py (a face row is read as a
basic-index view, `np.moveaxis(x, axis, 0)[row]`: `np.take` copies,
and on a non-contiguous array such as a bundle's Christoffel symbols
it copies the whole array first), or a COO build in systole.py, is
reported with its file and line.  systole.py must hold exactly one
`dijkstra` call site and one `csr_matrix(...)` call: one cover, on
reduced costs, searched by one blocked routine in both passes.  A call
of `inverse_and_determinant` inside the body of one of the integrals is
reported the same way.
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


def call_names(path: Path) -> list:
    """(line, dotted name) of each call, e.g. (3, "diff_array") or
    (7, "np.linalg.inv"); a root that is not a plain name reads "?"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            parts.append(func.id if isinstance(func, ast.Name) else "?")
            found.append((node.lineno, ".".join(reversed(parts))))
    return sorted(found)


def stencil_calls(path: Path) -> list:
    """`file:line: diff_array(...)` for each call of the stencil kernel."""
    return [f"{path.name}:{line}: diff_array(...)"
            for line, name in call_names(path)
            if name.split(".")[-1] == "diff_array"]


def dense_inverse_calls(path: Path) -> list:
    """`file:line: np.linalg.inv(...)` for each LAPACK inverse,
    determinant or solve (any call spelled `... linalg.inv`,
    `... linalg.det` or `... linalg.solve`)."""
    return [f"{path.name}:{line}: {name}(...)"
            for line, name in call_names(path)
            if name.split(".")[-2:] in (["linalg", "inv"], ["linalg", "det"],
                                        ["linalg", "solve"])]


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
                      "c = charts.gradient(v, g)\n"
                      "d = load().diff_array(v, g, 0, 2)\n")
    assert stencil_calls(sample) == [
        "sample.py:3: diff_array(...)", "sample.py:4: diff_array(...)",
        "sample.py:6: diff_array(...)"]


def test_metric_inverses_only_in_charts():
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "curvature.py" in paths
    found = [line for path in paths if path.name != "charts.py"
             for line in dense_inverse_calls(path)]
    assert not found, "LAPACK inverse, determinant or solve outside " \
        "charts.py:\n" + "\n".join(found)


def test_inverse_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy as np\nimport scipy.sparse.linalg as sl\n"
                      "a = np.linalg.inv(g)\n"
                      "b = np.linalg.solve(g, r)\n"
                      "c = sl.inv(m)\n"
                      "d = numpy.linalg.det(\n    g)\n"
                      "e = charts.inverse_and_determinant(g)\n")
    assert dense_inverse_calls(sample) == [
        "sample.py:3: np.linalg.inv(...)",
        "sample.py:4: np.linalg.solve(...)",
        "sample.py:6: numpy.linalg.det(...)"]


def grid_constructions(path: Path) -> list:
    """`file:line: ChartGrid(...)` for each direct grid construction."""
    return [f"{path.name}:{line}: ChartGrid(...)"
            for line, name in call_names(path)
            if name.split(".")[-1] == "ChartGrid"]


def test_grids_are_built_only_in_charts():
    # make_chart, slab and drop_axis all pass the one spacing check in
    # ChartGrid.__post_init__; a grid built elsewhere could bypass them
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "hypersurface.py" in paths
    found = [line for path in paths if path.name != "charts.py"
             for line in grid_constructions(path)]
    assert not found, "ChartGrid built outside charts.py:\n" + \
        "\n".join(found)
    assert grid_constructions(SOURCE / "charts.py")


def test_grid_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .charts import ChartGrid, make_chart\n"
                      "a = ChartGrid((8,), (1.0,), ('periodic',),\n"
                      "              (0.0,), (0.125,))\n"
                      "b = make_chart(1, 8, 1.0, 'periodic')\n"
                      "c = charts.ChartGrid(*fields)\n"
                      "d = isinstance(g, ChartGrid)\n")
    assert grid_constructions(sample) == [
        "sample.py:2: ChartGrid(...)", "sample.py:5: ChartGrid(...)"]


def write_opens(path: Path) -> list:
    """`file:line: open(..., mode)` for each builtin `open` call whose
    mode writes, appends or creates (any of w, a, x, +); a mode that is
    not a string literal counts as writing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "mode"]
        if not modes:
            continue
        mode = modes[0]
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and not set(mode.value) & set("wax+"):
            continue
        found.append((node.lineno, ast.unparse(mode)))
    return [f"{path.name}:{line}: open(..., {mode})"
            for line, mode in sorted(found)]


def test_files_are_written_only_in_charts_and_cli():
    # domain modules return records; cli formats every job output and
    # charts writes the flow's snapshots
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "flow.py" in paths
    found = [line for path in paths
             if path.name not in ("charts.py", "cli.py")
             for line in write_opens(path)]
    assert not found, "file opened for writing outside charts.py and " \
        "cli.py:\n" + "\n".join(found)
    assert write_opens(SOURCE / "charts.py")
    assert write_opens(SOURCE / "cli.py")


def test_write_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("a = open(p)\nb = open(p, 'rb')\n"
                      "c = open(p, 'w', newline='\\n')\n"
                      "d = open(p,\n         mode='ab')\n"
                      "e = open(p, 'r+')\nf = open(p, m)\n"
                      "g = path.open('w')\nh = open(p, encoding='utf-8')\n")
    assert write_opens(sample) == [
        "sample.py:3: open(..., 'w')", "sample.py:4: open(..., 'ab')",
        "sample.py:6: open(..., 'r+')", "sample.py:7: open(..., m)"]


def snapshot_writes(path: Path) -> list:
    """`file:line: write_snapshot(...)` for each snapshot write."""
    return [f"{path.name}:{line}: write_snapshot(...)"
            for line, name in call_names(path)
            if name.split(".")[-1] == "write_snapshot"]


def test_snapshots_are_written_only_by_cli():
    # flow_states has no file side effect, so a replay of a stretch of
    # the flow (a checkpoint segment) writes nothing
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "flow.py" in paths
    found = [line for path in paths if path.name != "cli.py"
             for line in snapshot_writes(path)]
    assert not found, "write_snapshot called outside cli.py:\n" + \
        "\n".join(found)
    assert snapshot_writes(SOURCE / "cli.py")


def test_snapshot_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .charts import write_snapshot, read_snapshot\n"
                      "write_snapshot(p, grid, fields)\n"
                      "charts.write_snapshot(\n    p, grid, fields)\n"
                      "read_snapshot(p)\n"
                      "writer = write_snapshot\n")
    assert snapshot_writes(sample) == [
        "sample.py:2: write_snapshot(...)",
        "sample.py:3: write_snapshot(...)"]


def leaf_geometry_calls(path: Path) -> list:
    """`file:line: embed_graph(...)` for each graph embedding, and the
    same for each `curvature_bundle` and `inverse_and_determinant`
    call."""
    return [f"{path.name}:{line}: {name.split('.')[-1]}(...)"
            for line, name in call_names(path)
            if name.split(".")[-1] in ("embed_graph", "curvature_bundle",
                                       "inverse_and_determinant")]


def test_spectral_reads_walls_and_bundles_off_the_leaf():
    # chart walls come from hypersurface.chart_wall in closed form, and
    # the Jacobi operator reads the leaf's own bundle, inverse metric
    # and volume; re-embedding a wall, re-deriving curvature or
    # re-inverting the induced metric would redo that work per operator
    found = leaf_geometry_calls(SOURCE / "spectral.py")
    assert not found, "spectral.py embeds a graph, builds a curvature " \
        "bundle or inverts a metric:\n" + "\n".join(found)
    assert leaf_geometry_calls(SOURCE / "hypersurface.py")


def test_leaf_geometry_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .hypersurface import embed_graph, chart_wall\n"
                      "a = embed_graph(metric, h, graph_axis=1)\n"
                      "b = chart_wall(emb, 0, 1)\n"
                      "c = hypersurface.embed_graph(\n    metric, h)\n"
                      "d = curvature.curvature_bundle(metric)\n"
                      "e = embed_graph\n"
                      "f = charts.inverse_and_determinant(g)[0]\n")
    assert leaf_geometry_calls(sample) == [
        "sample.py:2: embed_graph(...)", "sample.py:4: embed_graph(...)",
        "sample.py:6: curvature_bundle(...)",
        "sample.py:8: inverse_and_determinant(...)"]


def row_copies(path: Path) -> list:
    """`file:line: np.take(...)` for each `np.take` or `numpy.take`
    call; a method spelled `.take` (a sampler's) is not one."""
    return [f"{path.name}:{line}: {name}(...)"
            for line, name in call_names(path)
            if name in ("np.take", "numpy.take")]


def test_face_rows_are_views():
    # chart_wall, the leaf faces and the Robin rows read one boundary
    # row; np.take on the bundle's component-major Christoffel view
    # copied the whole slab's array (15.6 MB on a shell leaf) per wall
    found = [line for name in ("hypersurface.py", "spectral.py")
             for line in row_copies(SOURCE / name)]
    assert not found, "face row copied with np.take:\n" + "\n".join(found)


def test_row_copy_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy as np\n"
                      "a = np.take(x, 0, axis=1)\n"
                      "b = sampler.take(x)\n"
                      "c = numpy.take(\n    x, -1, axis=0)\n"
                      "d = np.moveaxis(x, 1, 0)[0]\n")
    assert row_copies(sample) == [
        "sample.py:2: np.take(...)", "sample.py:4: numpy.take(...)"]


def coo_builds(path: Path) -> list:
    """`file:line: ...` for each `coo_matrix` call, each `.tocsr()`
    conversion and each `csr_matrix((data, (rows, cols)))` call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(line, name.split(".")[-1] + "(...)")
             for line, name in call_names(path)
             if name.split(".")[-1] in ("coo_matrix", "tocsr")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func).split(".")[-1] == "csr_matrix"
                and isinstance(node.args[0], ast.Tuple)
                and len(node.args[0].elts) == 2
                and isinstance(node.args[0].elts[1], ast.Tuple)):
            found.append((node.lineno, "csr_matrix((data, (rows, cols)))"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_systole_writes_the_cover_straight_into_csr():
    # the cover's rows follow from one sorted edge order and the layer
    # count; a COO build would sort and sum 1.57 M entries at res 128
    found = coo_builds(SOURCE / "systole.py")
    assert not found, "systole.py builds a sparse matrix through COO:\n" \
        + "\n".join(found)


def test_systole_builds_one_cover_and_searches_it_once():
    # both passes run on the reduced cover through one blocked search;
    # a second cover or a second search loop would double the work
    calls = [name.split(".") for _, name in
             call_names(SOURCE / "systole.py")]
    assert sum(parts[-1] == "dijkstra" for parts in calls) == 1
    assert sum(parts[-1] == "csr_matrix" for parts in calls) == 1


def test_coo_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("a = coo_matrix((v, (r, c)), shape=s)\n"
                      "b = sparse.coo_matrix(m)\n"
                      "c = m.tocsr()\n"
                      "d = csr_matrix((v, (r, c)))\n"
                      "e = scipy.sparse.csr_matrix(\n    (v, (r, c)))\n"
                      "f = csr_matrix((v, ix, ptr), shape=s)\n"
                      "g = csr_matrix(m)\n")
    assert coo_builds(sample) == [
        "sample.py:1: coo_matrix(...)", "sample.py:2: coo_matrix(...)",
        "sample.py:3: tocsr(...)",
        "sample.py:4: csr_matrix((data, (rows, cols)))",
        "sample.py:5: csr_matrix((data, (rows, cols)))"]


INTEGRALS = ("integrate", "f_functional", "weighted_area",
             "weighted_area_variation")


def integral_inversions(path: Path) -> tuple:
    """The INTEGRALS defined in a file, and `file:line: name inverts
    (...)` for each `inverse_and_determinant` call in one's body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined, found = set(), []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in INTEGRALS):
            continue
        defined.add(fn.name)
        found += [(node.lineno, fn.name) for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and ast.unparse(
                      node.func).split(".")[-1] == "inverse_and_determinant"]
    return defined, [f"{path.name}:{line}: {name} inverts (...)"
                     for line, name in sorted(found)]


def test_integrals_read_held_volumes():
    # the bundle and the leaf embedding keep sqrt(det g) from the
    # inversion they make anyway; an integral that inverts again does
    # that work twice per flow state or leaf
    defined, found = set(), []
    for path in sorted(SOURCE.glob("*.py")):
        names, lines = integral_inversions(path)
        defined |= names
        found += lines
    assert defined == set(INTEGRALS)
    assert not found, "an integral inverts a metric:\n" + "\n".join(found)


def test_integral_detector_names_file_and_line(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def integrate(field, metric):\n"
                      "    det = inverse_and_determinant(metric)[1]\n"
                      "    return det\n"
                      "def weighted_area(emb, phi):\n"
                      "    return integrate(emb, charts.inverse_and_"
                      "determinant(\n        g))\n"
                      "def embed_graph(metric):\n"
                      "    return inverse_and_determinant(metric)\n")
    assert integral_inversions(sample) == (
        {"integrate", "weighted_area"},
        ["sample.py:2: integrate inverts (...)",
         "sample.py:5: weighted_area inverts (...)"])
