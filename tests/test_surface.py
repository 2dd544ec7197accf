"""The public surface: the README's library example and the benchmark's imports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import socalloc

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_benchmark_imports_are_public():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "socalloc" \
                    and node.level == 0:
                names.update(alias.name for alias in node.names)
    # ``from socalloc import cli`` imports a submodule, not an exported name
    modules = {name for name in names
               if isinstance(getattr(socalloc, name, None) or
                             importlib.import_module(f"socalloc.{name}"), ModuleType)}
    exported = names - modules
    assert exported, "no name imported 'from socalloc' under perfbench/"
    assert exported <= set(socalloc.__all__), sorted(exported - set(socalloc.__all__))
    for name in exported:
        getattr(socalloc, name)


def test_all_names_resolve():
    assert len(socalloc.__all__) == len(set(socalloc.__all__))
    for name in socalloc.__all__:
        getattr(socalloc, name)


def test_json_is_decoded_only_by_read_record():
    # one reader refuses every damaged file the same way; a second json.load(s)
    # would have to repeat its checks
    found = []
    for path in sorted((ROOT / "src" / "socalloc").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                found.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert found == ["model._read_record"]


#: Layers the traced benchmark wraps where each entry module looks them up
#: (perfbench/spans.py skips a missing one, and its layer then reads 0).
WRAPPED = {"socalloc.experiment": ("run_trial", "minimize_dual", "build_report"),
           "socalloc.cli": ("linearize", "minimize_dual", "build_report",
                            "load_instance", "save_instance", "save_trace")}

SPANS_SCRIPT = """
import sys
from spans import Spans
from socalloc import (GeneratorConfig, OnlineSolver, VariantConfig, generate, linearize,
                      run_online, to_soc)
spans = Spans().install("socalloc.experiment").install("socalloc.cli")
soc = to_soc(generate(GeneratorConfig("uniform", n=20, m=2, k=3, eta=(0.9, 0.8))))
OnlineSolver(soc).run()
run_online(soc, linearize(soc), VariantConfig("marginal"))  # as perfbench/verify.py calls it
assert {info for name, *_, info in spans.records
        if name == "online.run"} == {("vanilla", 20), ("marginal", 20)}
print("ok")
"""


def test_benchmark_spans_install():
    # the traced benchmark wraps attributes by name: OnlineSolver.run,
    # reading its config's variant, and module attributes of baseline,
    # transform and metrics; one of them gone breaks every traced run
    for entry, attrs in WRAPPED.items():
        module = importlib.import_module(entry)
        assert all(hasattr(module, attr) for attr in attrs), entry
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SPANS_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "ok", result.stderr
