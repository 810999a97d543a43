"""The package exports nothing that only its own unit tests use.

Every public top-level function or class in src/qfedsim must be referred to
somewhere in the package outside `__init__.py`, or be imported by the
acceptance gate. Anything else is API kept alive by its own unit test; it is
deleted, or listed in ALLOWED with the reason it stays.

A reference to `name`, defined in module `mod`, counts only as `mod.name`
where `from . import mod` binds `mod`, as a loaded bare name imported by
`from .mod import name`, or as a loaded bare name inside `mod` itself. So a
local variable or attribute of another module that happens to share the
name does not count.
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


def references(tree, module):
    """(defining module, name) pairs one package module refers to."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(imported.get(node.id, (module, node.id)))
    return found


def referenced_names():
    """(module, name) pairs referred to inside the package (outside
    __init__) or imported by the acceptance gate."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            found |= references(parse(path), path.stem)
    for node in ast.walk(parse(ACCEPTANCE)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qfedsim."):
            module = node.module.split(".", 1)[1]
            found.update((module, alias.name) for alias in node.names)
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    used = referenced_names()
    unused = sorted(
        f"{module}.{name}"
        for name, module in public_definitions().items()
        if (module, name) not in used and name not in ALLOWED
    )
    assert unused == [], f"public API used only by unit tests: {unused}"


def test_allowlist_entries_exist_and_carry_reasons():
    defined = public_definitions()
    for name, reason in ALLOWED.items():
        assert name in defined
        assert reason.strip()


def test_a_shadowing_name_in_another_module_does_not_count():
    source = (
        "from . import model\n"
        "from .core import expectation as expect\n"
        "def divergence(p, forward):\n"
        "    forward = forward + model.head_scores(p)\n"
        "    return expect(forward) + kl(p)\n"
    )
    found = references(ast.parse(source), "data")
    assert ("model", "forward") not in found
    assert ("model", "head_scores") in found
    assert ("core", "expectation") in found
    assert ("data", "forward") in found and ("data", "kl") in found
