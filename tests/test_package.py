import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import graphentropy


def test_star_import_binds_no_modules():
    namespace: dict = {}
    exec("from graphentropy import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(graphentropy.__all__)
    assert not [name for name, obj in namespace.items() if isinstance(obj, types.ModuleType)]


def test_all_names_are_unique_and_public():
    assert len(set(graphentropy.__all__)) == len(graphentropy.__all__)
    assert not [name for name in graphentropy.__all__ if name.startswith("_")]


def child_stdout(code):
    # the child imports the copy under test, also when only pytest's pythonpath finds it
    src = str(Path(graphentropy.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_import_leaves_networkx_unloaded():
    code = "import sys, graphentropy; print('networkx' in sys.modules)"
    assert child_stdout(code) == "False"


def test_claim_engines_leave_numpy_ma_unloaded():
    # numpy.ma costs 1.2 MB of RSS and is imported lazily by some numpy
    # calls (np.unique among them); no claim engine may pull it in
    code = """
        import sys, graphentropy as ge
        for param in ("diameter", "matching", "max_degree"):
            ge.param_comparability(6, param)
        ge.param_comparability(6, "diameter", workers=2)
        ge.coentropy_search(6)
        ge.verify_renyi_max(6, 3.0)
        ge.verify_density_implies_star(6)
        ge.edge_add_decrease_search(6)
        ge.verify_star_min_von_neumann(6)
        ge.verify_renyi_star_min(6, 1.5)
        ge.verify_renyi_star_min(6, 2.0)
        ge.table1_row(6)
        ge.failing_graph_properties(6)
        ge.verify_tree_extremes(6, "S")
        ge.verify_tree_extremes(6, "H2")
        print("numpy.ma" in sys.modules)
    """
    assert child_stdout(textwrap.dedent(code)) == "False"


def test_benchmark_traced_functions_exist():
    # the benchmark's tracer looks each (module, function) up unguarded
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tree = ast.parse(child.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert traced
    for module, name, is_generator in traced:
        fn = getattr(importlib.import_module(f"graphentropy.{module}"), name)
        assert callable(fn) and inspect.isgeneratorfunction(fn) == is_generator


def test_readme_cites_only_private_names_that_exist():
    # a private helper README names in backticks, bare or as module._name,
    # must be an attribute of a graphentropy module, so the docs cannot name
    # a deleted helper
    readme = Path(__file__).resolve().parents[1] / "README.md"
    cited = re.findall(r"`(?:(\w+)\.)?(_\w+)`", readme.read_text())
    assert cited
    modules = {
        info.name: importlib.import_module(f"graphentropy.{info.name}")
        for info in pkgutil.iter_modules(graphentropy.__path__)
        if not info.name.startswith("_")
    }
    for module, name in cited:
        owners = [modules[module]] if module else modules.values()
        assert any(hasattr(m, name) for m in owners), f"README cites {module or '*'}.{name}"
