"""The package exports nothing that only its own unit tests use.

Every public top-level function or class in src/qfedsim must be referred to
by name (a bare name or an attribute) somewhere in the package outside
`__init__.py`, or be imported by the acceptance gate. Anything else is API
kept alive by its own unit test; it is deleted, or listed in ALLOWED with
the reason it stays.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfedsim"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

ALLOWED = {
    "load_params": "reads the params.bin run artifact that the README documents",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """{name: module} for every public top-level def and class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def referenced_names():
    """Names used inside the package (outside __init__) or imported by the
    acceptance gate."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for node in ast.walk(parse(ACCEPTANCE)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qfedsim"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    used = referenced_names()
    unused = sorted(
        f"{module}.{name}"
        for name, module in public_definitions().items()
        if name not in used and name not in ALLOWED
    )
    assert unused == [], f"public API used only by unit tests: {unused}"


def test_allowlist_entries_exist_and_carry_reasons():
    defined = public_definitions()
    for name, reason in ALLOWED.items():
        assert name in defined
        assert reason.strip()
