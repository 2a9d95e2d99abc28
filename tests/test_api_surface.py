"""Every public name in ``src/motionstack`` has a caller outside the tests.

A public function, class or method that only tests call is dead weight: it
must be used by the package itself, by the benchmark harness in
``perfbench/`` or by the reference implementations in ``tests/oracles.py``.
The exceptions are listed in ``ALLOWED`` with the reason each one stays.

References are found with ``ast``: a bare name, an attribute of that name,
or an imported name, anywhere in the scanned files except inside the
definition itself. Methods are matched by attribute name alone, so a
method counts as used when any object's attribute of that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "motionstack"

# Public names kept without a caller in the scanned files, as
# "module.name" or "module.Class.method", each with its reason.
ALLOWED: dict[str, str] = {}


def _scanned_files() -> list[Path]:
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    return files + [ROOT / "tests" / "oracles.py"]


def _public_definitions() -> dict[str, tuple[Path, ast.AST]]:
    """Public module-level functions and classes, and public methods of public classes."""
    defs = {}
    kinds = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            defs[f"{path.stem}.{node.name}"] = (path, node)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds) and not member.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{member.name}"] = (path, member)
    return defs


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every referenced identifier, with the file and line of each reference."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in _scanned_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _unreferenced() -> set[str]:
    refs = _references()
    unused = set()
    for qualified, (path, node) in _public_definitions().items():
        own_body = range(node.lineno, node.end_lineno + 1)
        if not any(p != path or line not in own_body for p, line in refs.get(node.name, ())):
            unused.add(qualified)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unreferenced() - set(ALLOWED)
    assert not unused, (
        "public names that only tests use; delete them, make them private, "
        f"or list them in ALLOWED with a reason: {sorted(unused)}"
    )


def test_allow_list_names_exist_and_need_the_exception():
    defs = _public_definitions()
    unused = _unreferenced()
    stale = sorted(name for name in ALLOWED if name not in defs or name not in unused)
    assert not stale, f"ALLOWED entries that are gone or have a caller now: {stale}"
