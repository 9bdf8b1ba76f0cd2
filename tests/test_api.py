"""The package's public names and the README's Library usage section stay in step, and no definition is orphaned."""

import ast
import re
from collections import Counter
from pathlib import Path

import wordfuse

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def library_usage_imports() -> list[str]:
    """The names the Python block of the README's Library usage section imports from wordfuse."""
    section = README.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "wordfuse"
        for alias in node.names
    ]


def test_every_public_name_is_documented():
    assert all(hasattr(wordfuse, name) for name in wordfuse.__all__)
    assert [name for name in wordfuse.__all__ if not re.search(rf"\b{name}\b", README)] == []


def test_library_usage_imports_only_public_names():
    imported = library_usage_imports()
    assert "load_bundle" in imported
    assert sorted(set(imported) - set(wordfuse.__all__)) == []


# definitions the package keeps for one caller outside it: name -> that caller
OUTSIDE_CALLERS = {"agreement_stats": "perfbench/worker.py"}


def names_used(tree: ast.AST) -> Counter:
    """How often each name is read as a bare name or an attribute within ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_module_level_definition_is_used_or_public():
    # a helper whose last caller went away fails here instead of lingering
    for name, caller in OUTSIDE_CALLERS.items():
        assert name in (ROOT / caller).read_text(encoding="utf-8"), (name, caller)
    package = ROOT / "src" / "wordfuse"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    orphans = sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == names_used(node)[node.name]
        and node.name not in [*wordfuse.__all__, *OUTSIDE_CALLERS]
    )
    assert orphans == []


# the package's modules by layer, lowest first
LAYERS = [["_kernel"], ["numerics"], ["segvote"], ["lexicon", "fusion"], ["attention"], ["cli", "check"]]


def test_every_module_level_import_names_a_lower_layer():
    # cli and check import each other inside functions only, which this does not read; __init__ re-exports
    layer = {module: i for i, modules in enumerate(LAYERS) for module in modules}
    package = ROOT / "src" / "wordfuse"
    assert sorted(layer) == sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    upward = [
        (module, name)
        for module in layer
        for node in ast.parse((package / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for name in ([node.module] if node.module else [alias.name for alias in node.names])
        if layer[name] >= layer[module]
    ]
    assert upward == []
