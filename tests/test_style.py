"""Style checks over src/, tests/ and scripts/: every imported name is used
(package __init__ re-exports and __future__ imports are exempt), no line is
longer than 100 characters, no module under src/ imports a private
(underscore) name from another module of the package or imports scipy, and
no module under src/ but polyring reads a polynomial's terms map or calls
object.__new__, no function under src/ but polyring.shift_table and
polyring._sqrt_pairs calls grlex_rank on a sum (every exponent sum is
ranked once, in a cached rank table), and every name the package exports
is read outside its own definition by another src/ module, a file under
scripts/, README.md or tests/test_acceptance.py (apply_functional, kept
for l(q) of a separating witness, is the one exception)."""

import ast
import re
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


def dict_form_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "terms" and path.name != "polyring.py":
            found.append(f".terms (line {node.lineno})")
        if node.attr == "__new__" and getattr(node.value, "id", None) == "object":
            found.append(f"object.__new__ (line {node.lineno})")
    return found


def test_polynomials_read_through_their_arrays_outside_polyring():
    # Polynomial stores exponent and coefficient arrays; its terms map is a view
    # for the public API, and no module builds an instance around its constructor
    found = [
        f"{path.relative_to(ROOT)}: {item}"
        for path in FILES
        if path.is_relative_to(ROOT / "src")
        for item in dict_form_reads(path)
    ]
    assert not found, "dict-form reads under src/:\n" + "\n".join(found)


def scipy_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    modules += [
        (node.module, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
    ]
    return [f"{name} (line {line})" for name, line in modules if name.split(".")[0] == "scipy"]


def test_scipy_imports_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.linalg\nfrom scipy import optimize\nimport scipyish\n")
    assert scipy_imports(probe) == ["scipy.linalg (line 1)", "scipy (line 2)"]


def test_no_scipy_under_src():
    # numpy is the only runtime dependency; importing scipy.linalg alone took
    # about 0.3 s on a 2-core machine, added to every CLI start-up
    found = [
        f"{path.relative_to(ROOT)}: {item}"
        for path in FILES
        if path.is_relative_to(ROOT / "src")
        for item in scipy_imports(path)
    ]
    assert not found, "scipy imports under src/:\n" + "\n".join(found)


def rank_of_sum_calls(path: Path) -> list[str]:
    # grlex_rank calls on a sum, except inside polyring's two cached rank
    # tables: shift_table and _sqrt_pairs, whose pairs |a| + |b| = d would
    # need a dense size(n, d - 1)^2 table per degree d
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if path.name == "polyring.py"
        and isinstance(node, ast.FunctionDef)
        and node.name in ("shift_table", "_sqrt_pairs")
        for inner in ast.walk(node)
    }
    return [
        f"grlex_rank of a sum (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in exempt
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "grlex_rank"
        and any(isinstance(arg, ast.BinOp) for arg in node.args)
    ]


def test_rank_of_sum_calls_found(tmp_path):
    calls = (
        "grlex_rank(a + b)\npolyring.grlex_rank(a[:, None] + c)\ngrlex_rank(a)\nrank(a + b)\n"
        "def shift_table(n):\n    return grlex_rank(a + b)\n"
        "def _sqrt_pairs(n):\n    return grlex_rank(a + b)\n"
        "def truncated_square(n):\n    return grlex_rank(a + b)\n"
    )
    flagged = [f"grlex_rank of a sum (line {line})" for line in (1, 2, 6, 8, 10)]
    probe = tmp_path / "probe.py"
    probe.write_text(calls)
    assert rank_of_sum_calls(probe) == flagged
    # in polyring only shift_table and _sqrt_pairs may rank a sum: another
    # function there is flagged
    (tmp_path / "polyring.py").write_text(calls)
    assert rank_of_sum_calls(tmp_path / "polyring.py") == flagged[:2] + flagged[4:]


def test_rank_tables_stay_in_polyring():
    # every product and moment-side gather reads a cached table (simplex_index,
    # shift_table) instead of ranking an exponent sum table of its own
    found = [
        f"{path.relative_to(ROOT)}: {item}"
        for path in FILES
        if path.is_relative_to(ROOT / "src")
        for item in rank_of_sum_calls(path)
    ]
    assert not found, "exponent sums ranked outside the rank tables:\n" + "\n".join(found)


# exported names with no reader yet, each kept for a planned use
UNREAD_EXPORTS = {"apply_functional"}


def names_read(path: Path) -> set[str]:
    # every name loaded, except inside the function or class that defines it
    found: set[str] = set()

    def visit(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_names_read_skips_own_definition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(n):\n    return f(n - 1)\n\nclass C:\n    x = C\n\ny = g\nz = 1\n")
    assert names_read(probe) == {"n", "g"}


def test_every_export_is_read():
    # dead public surface does not grow back: an exported name needs a reader
    package = ROOT / "src" / "momentcone"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    src_reads = set().union(*map(names_read, modules))
    texts = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    texts += (ROOT / "scripts").glob("*.py")
    text = "\n".join(p.read_text(encoding="utf-8") for p in texts)
    unread = [
        name
        for name in exported
        if name not in src_reads | UNREAD_EXPORTS and not re.search(rf"\b{name}\b", text)
    ]
    assert not unread, "exported names that nothing reads:\n" + "\n".join(unread)
