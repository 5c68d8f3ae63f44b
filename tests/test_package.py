import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
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


def test_import_leaves_networkx_unloaded():
    code = "import sys, graphentropy; print('networkx' in sys.modules)"
    # the child imports the copy under test, also when only pytest's pythonpath finds it
    src = str(Path(graphentropy.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


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
