"""The package's public names and the README's Library usage section stay in step."""

import ast
import re
from pathlib import Path

import wordfuse

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
