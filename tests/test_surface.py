"""The library surface: every public name in ``src/qfoundry`` has a reader.

A public top-level function or class, or a public method or property of a
public class, must be referenced by code in ``src/`` other than its own
definition, be used in the README "Library use" block, or be listed in
``ALLOWED`` with its reason.  Docstrings and comments are not references.
For a module-level name a reference is a ``module.NAME`` access, a
``from .module import NAME`` (``from . import NAME`` for the package's
``__init__``) or a bare use inside its own module; for a
method it is an attribute access by its name.  The README block is also
run here, so the names it shows are known to work.
"""

import ast
import contextlib
import io
import pathlib
import re

SRC = pathlib.Path(__file__).parents[1] / "src" / "qfoundry"
README = pathlib.Path(__file__).parents[1] / "README.md"
MODULES = {path.stem: path for path in sorted(SRC.glob("*.py"))}

ALLOWED = {
    "inequalities.minimize": "the benchmark tracer's hook; it goes when scipy is dropped",
    "inequalities.chsh_planar_grid_value": "the oracle of the bounds benchmark's check",
    "hvmodels.poincare_outcome": "a model rule the README names; the tests use it as the sampler's oracle",
    "hvmodels.leggett_outcomes": "a model rule the README names; the tests use it as the sampler's oracle",
}


def library_block():
    """The Python code block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def public_names():
    """``module.NAME`` of each public top-level def, and ``module.Class.NAME`` of each public method."""
    names = []
    for module, path in MODULES.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.append(f"{module}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    names += [
                        f"{module}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    ]
    return names


def references(tree, module=None):
    """``module.NAME`` for each module-level reference in ``tree`` and ``.NAME`` for each attribute access.

    A bare name counts as ``module.NAME`` when ``module`` is given; a
    definition's uses of its own name are not counted.
    """
    found = set()
    for statement in tree.body:
        own = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                found.add(f".{node.attr}")
                if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                    found.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                source = node.module.removeprefix("qfoundry.") if node.module else "__init__"
                found.update(f"{source}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Name) and module is not None and node.id != own:
                found.add(f"{module}.{node.id}")
    return found


def unreached(allowed):
    """The public names that nothing reaches and ``allowed`` does not list."""
    found = references(ast.parse(library_block()))
    for module, path in MODULES.items():
        found |= references(ast.parse(path.read_text(encoding="utf-8")), module)
    missing = []
    for name in public_names():
        parts = name.split(".")
        key = name if len(parts) == 2 else f".{parts[-1]}"
        if key not in found and name not in allowed:
            missing.append(name)
    return missing


def test_every_public_name_is_reached():
    assert unreached(ALLOWED) == []


def test_every_allowed_name_is_public_and_otherwise_unreached():
    # a stale entry, for a name that is gone or that gained a reader, fails too
    assert sorted(set(ALLOWED) - set(unreached({}))) == []


def test_library_block_runs_and_prints_its_comments():
    block = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # each print line's comment gives the leading digits of its value, ending in an ellipsis
    expected = re.findall(r"^print\(.*#\s*(\S+)…$", block, re.MULTILINE)
    assert printed and len(printed) == len(expected)
    for value, digits in zip(printed, expected):
        assert value.startswith(digits), (value, digits)
