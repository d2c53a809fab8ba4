"""Style checks over src/, tests/ and scripts/: every imported name is used
(package __init__ re-exports and __future__ imports are exempt), no line is
longer than 100 characters, and no module under src/ imports a private
(underscore) name from another module of the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
MAX_LINE = 100


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_files_found():
    names = {p.name for p in FILES}
    assert {"cli.py", "test_style.py", "pipeline_demo.py"} <= names


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}: {item}"
        for path in FILES
        if path.name != "__init__.py"
        for item in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_line_length():
    found = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in FILES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not found, f"lines over {MAX_LINE} characters:\n" + "\n".join(found)


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")  # dunders are public
    ]


def test_no_private_imports_across_src_modules():
    found = [
        f"{path.relative_to(ROOT)}: {item}"
        for path in FILES
        if path.is_relative_to(ROOT / "src")
        for item in private_imports(path)
    ]
    assert not found, "private names imported across modules:\n" + "\n".join(found)
