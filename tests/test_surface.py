"""The public surface: the README's library example and the benchmark's imports."""

import ast
import importlib
import re
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
