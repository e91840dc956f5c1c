"""The library surface: every public name in ``src/qfoundry`` has a reader.

A public top-level function or class, or a public method or property of a
public class, must be referenced by code in ``src/`` other than its own
definition, be used in the README "Library use" block, or be listed in
``ALLOWED`` with its reason.  Docstrings and comments are not references.
For a module-level name a reference is a ``module.NAME`` access, a
``from .module import NAME`` (``from . import NAME`` for the package's
``__init__``) or a bare use inside its own module; for a
method it is an attribute access by its name.  The README block is also
run here, so the names it shows are known to work, and its list of the
library value types must name exactly the validated dataclasses in ``src/``.
The package declares numpy as its one runtime dependency, and ``src/``
imports nothing beyond the standard library, numpy and itself, save the
imports listed in ``OPTIONAL_IMPORTS`` with their reasons.  Only
``hvmodels``, home of ``parallel_map``, imports ``threading``, and no module
imports ``_thread``, ``multiprocessing`` or ``concurrent.futures``.

The test files are parsed too: no hypothesis test may run under a
``filterwarnings("error")`` mark.  The hypothesis plugin reports a failing
example through an import that warns, so under the mark the first failing
example stops the session with INTERNALERROR instead of failing the test;
such a test turns warnings into errors with ``warnings.catch_warnings()``
inside the example.
"""

import ast
import contextlib
import importlib
import io
import pathlib
import re
import sys
import textwrap

import pytest

from helpers import validated_value_types

TESTS = pathlib.Path(__file__).parent
SRC = TESTS.parent / "src" / "qfoundry"
README = pathlib.Path(__file__).parents[1] / "README.md"
PYPROJECT = TESTS.parent / "pyproject.toml"
MODULES = {path.stem: path for path in sorted(SRC.glob("*.py"))}

ALLOWED = {
    "inequalities.minimize": "the tracer's hook; needs scipy installed separately, nothing calls it; ROADMAP 1b/1c",
    "inequalities.chsh_planar_grid_value": "the oracle of the bounds benchmark's check",
    "hvmodels.poincare_outcome": "the local model's rule, which the README names; no scenario or check calls it",
    "hvmodels.leggett_outcomes": "a model rule the README names; the tests use it as the sampler's oracle",
    "report.ResultTable.add_row": "perfbench/tests builds a table row by row",
}
# (module, top-level package) -> why ``src/`` may import a package it does not declare
OPTIONAL_IMPORTS = {
    ("inequalities", "scipy"): "the lazy import inside inequalities.minimize, which nothing calls",
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


def test_readme_lists_the_validated_value_types():
    modules = [importlib.import_module(f"qfoundry.{stem}") for stem in MODULES if stem != "__init__"]
    value_types = validated_value_types(modules)
    listed = re.search(r"The library value types \(([^)]*)\)", README.read_text(encoding="utf-8")).group(1)
    assert value_types
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(value_types)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def src_imports():
    """(module, dotted name) of each absolute import in ``src/``; ``from a import b`` gives ``a.b``."""
    imported = set()
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.update((module, f"{node.module}.{alias.name}") for alias in node.names)
    return imported


def test_src_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "qfoundry"}
    packages = {(module, name.split(".")[0]) for module, name in src_imports()}
    assert {(module, name) for module, name in packages if name not in allowed} == set(OPTIONAL_IMPORTS)


def test_only_parallel_map_starts_threads():
    # the same bytes for any worker count rest on every thread's result going
    # through parallel_map's index-ordered list, so no other module may start one
    concurrent = {"threading", "_thread", "multiprocessing", "concurrent"}
    assert {(module, name) for module, name in src_imports() if name.split(".")[0] in concurrent} == {
        ("hvmodels", "threading")
    }


def errors_on_warnings(node):
    """Whether ``node`` is a ``pytest.mark.filterwarnings`` call whose filter action is "error"."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("mark.filterwarnings")
        and any(isinstance(arg, ast.Constant) and str(arg.value).split(":")[0] == "error" for arg in node.args)
    )


def hypothesis_tests_erroring_on_warnings(source, filename):
    """``filename::test`` of each ``@given`` test that a ``filterwarnings("error")`` mark reaches.

    The mark may sit on the test, on an enclosing class or in the module's ``pytestmark``.
    """
    found = []

    def visit(body, where, marked):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{where}::{node.name}", marked or any(map(errors_on_warnings, node.decorator_list)))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
                given = any(name.split(".")[-1] == "given" for name in decorators)
                if given and (marked or any(map(errors_on_warnings, node.decorator_list))):
                    found.append(f"{where}::{node.name}")

    tree = ast.parse(source)
    module_marks = [
        node
        for statement in tree.body
        if isinstance(statement, ast.Assign) and any(getattr(t, "id", None) == "pytestmark" for t in statement.targets)
        for node in ast.walk(statement.value)
    ]
    visit(tree.body, filename, any(map(errors_on_warnings, module_marks)))
    return found


def test_no_hypothesis_test_runs_under_an_error_filter_mark():
    found = [
        name
        for path in sorted(TESTS.glob("test_*.py"))
        for name in hypothesis_tests_erroring_on_warnings(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_the_error_filter_guard_finds_each_placement():
    source = textwrap.dedent(
        """
        import pytest
        from hypothesis import given, strategies as st

        @pytest.mark.filterwarnings("error")
        @given(st.integers())
        def test_marked(x): ...

        @pytest.mark.filterwarnings("error::RuntimeWarning")
        class TestMarked:
            @hypothesis.given(st.integers())
            def test_in_class(self, x): ...

        @pytest.mark.filterwarnings("ignore")
        @given(st.integers())
        def test_ignoring(x): ...

        @pytest.mark.filterwarnings("error")
        def test_plain(): ...
        """
    )
    assert hypothesis_tests_erroring_on_warnings(source, "t.py") == ["t.py::test_marked", "t.py::TestMarked::test_in_class"]
    module_mark = 'import pytest\npytestmark = [pytest.mark.filterwarnings("error")]\n@given(x)\ndef test_any(x): ...\n'
    assert hypothesis_tests_erroring_on_warnings(module_mark, "m.py") == ["m.py::test_any"]
