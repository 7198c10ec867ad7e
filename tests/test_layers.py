"""The package is layered: each module imports only modules below it.

core < model < drafting < verification < {engine, calibration} < cli,
and a module imports no other module of its own rank, so calibration
replays decoding steps without importing the decoders.  ``batch`` and
``timing`` import no other module of the package and may be imported
from any layer; ``synthetic`` imports only ``core``.  The package's
``__init__`` is a leaf too, and defines no name but ``__version__``:
each public name is imported from the one module that defines it.

No module holds a construct ``python -O`` changes, so the package runs
the same with and without it.  Only ``core`` calls
``object.__setattr__``: its frozen value types set their own derived
fields, and no other module writes a field of one.
"""

import ast
from pathlib import Path

import pytest

import blockspec

PACKAGE = Path(blockspec.__file__).resolve().parent
LAYERS = (("core",), ("model",), ("drafting",), ("verification",), ("engine", "calibration"), ("cli",))
LEAVES = ("__init__", "batch", "timing")


def _allowed():
    allowed = {leaf: set() for leaf in LEAVES}
    allowed["synthetic"] = {"core"}
    below = set(LEAVES)
    for layer in LAYERS:
        for name in layer:
            allowed[name] = set(below)
        below.update(layer)
    return allowed


ALLOWED = _allowed()


def package_imports(name):
    """The package modules that module ``name`` imports, relatively or by
    the package's own name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / (name + ".py")).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "blockspec":
            parts = node.module.split(".")
            found.update(parts[1:2] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("blockspec."))
    return found


def test_every_module_has_a_place():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_module_imports_only_lower_layers(name):
    imported = package_imports(name)
    assert imported <= ALLOWED[name], "%s imports %s" % (name, sorted(imported - ALLOWED[name]))


def test_init_defines_only_the_version():
    """No name is exported twice: after its docstring the package's
    ``__init__`` only sets ``__version__``, so renaming or deleting a
    type edits one module."""
    statements = ast.parse((PACKAGE / "__init__.py").read_text()).body[1:]
    assert [(type(n), [t.id for t in n.targets]) for n in statements] == [(ast.Assign, ["__version__"])]


def optimize_dependent(tree):
    """The lines of ``tree`` that ``python -O`` can run differently: an
    ``assert``, which it strips, and a read of ``__debug__`` or
    ``sys.flags``, which it changes."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "flags":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(a.name == "flags" for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_source_runs_the_same_under_python_O():
    """No module asserts or reads ``__debug__`` or ``sys.flags``, so every
    input check and the lossless decode run the same under ``python -O``
    on every path, not only the paths tests reach."""
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in optimize_dependent(ast.parse(path.read_text()))
    ]
    assert found == []


def test_optimize_dependent_finds_each_construct():
    source = "assert x\nif __debug__:\n    pass\nimport sys\ny = sys.flags.optimize\nfrom sys import flags\n"
    assert optimize_dependent(ast.parse(source)) == [1, 2, 5, 6]


def frozen_writes(tree):
    """The lines of ``tree`` that call ``object.__setattr__``, the one way
    to write a field of a frozen dataclass."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_only_core_writes_frozen_fields():
    """A value type's fields are set when it is made, in ``core``; a
    module that wrote one into a shared state would give two equal
    states different behaviour."""
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "core.py"
        for line in frozen_writes(ast.parse(path.read_text()))
    ]
    assert found == []


def test_frozen_writes_finds_each_call():
    source = "object.__setattr__(a, 'x', 1)\nsetattr(a, 'x', 1)\nobject.__setattr__(b, 'y', 2)\n"
    assert frozen_writes(ast.parse(source)) == [1, 3]
