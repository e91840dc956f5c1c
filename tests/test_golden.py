"""Golden fixtures: the verify reports and CLI scenario outputs, byte for byte.

A change that moves any of these bytes rewrites the fixture in the same
commit and argues for the change in CHANGES.md.
``PYTHONPATH=src python tests/test_golden.py`` regenerates them: it rewrites
only the fixtures whose bytes changed (or that do not exist yet) and prints
their names, so the fixtures that moved are the ones listed.
"""

import contextlib
import functools
import importlib
import io
import os
import pathlib
import re
import shlex
import tempfile

import pytest

from qfoundry import cli, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"
MODULES = ("qcore", "hvmodels", "inequalities", "fock", "popper", "report", "verify", "cli")
REPORT_SEEDS = (2026, 17, 99)
# fixture name -> argv of one README example; an example that writes
# ``--output FILE`` is pinned by FILE's bytes, and a CSV one also by FILE.meta.json
README_EXAMPLES = {
    "readme_kcbs.json": ["kcbs"],
    "readme_leggett_scan.csv": ["leggett", "--scan-phi", "0:90:0.01", "--format", "csv", "--output", "scan.csv"],
    "readme_hardy.json": ["hardy", "--gamma", "22.5"],
    "readme_chsh_partial.json": ["chsh", "--state", "partial", "--gamma", "22.5"],
    "readme_popper.json": ["popper", "--sigma-plus", "1.0", "--sigma-minus", "0.5", "--width", "0.5"],
    "readme_leggett_samples.json": [
        "leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "1000000",
    ],
}
# fixture name -> argv of a scenario output the README examples do not cover
SCENARIO_EXAMPLES = {
    "scenario_lhv_table.json": ["lhv-table"],
    "scenario_polarization_scan.json": ["polarization-qm", "--scan-theta", "0:90:15"],
    "scenario_hardy_scan.json": ["hardy", "--scan-gamma", "0:90:15"],
    "scenario_chsh_singlet.json": ["chsh"],
    "scenario_hom.json": ["hom"],
    "scenario_noon.json": ["noon"],
    "scenario_noon_n3.json": ["noon", "--n", "3"],
    "scenario_tlm.json": ["tlm"],
    # CSV beyond the all-float scan: quoted string cells, a float and bool column, int columns
    "scenario_noon_n3.csv": ["noon", "--n", "3", "--format", "csv", "--output", "noon.csv"],
    "scenario_tlm.csv": ["tlm", "--format", "csv", "--output", "tlm.csv"],
    "scenario_lhv_table.csv": ["lhv-table", "--format", "csv", "--output", "lhv.csv"],
    "scenario_leggett_sharded.json": [
        "leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "3000001",
    ],
}


def verify_report(seed):
    return verify.render_report(verify.run_core_checks(seed), seed)


def cli_output(argv, suffix=""):
    """Stdout of ``qfoundry argv``, or the file it writes with ``--output`` (plus ``suffix``)."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = os.path.join(tmp, argv[at])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, argv
        if "--output" not in argv:
            return out.getvalue()
        assert out.getvalue() == "", argv
        return pathlib.Path(argv[at] + suffix).read_bytes().decode("utf-8")


def readme_examples():
    """argv of every ``qfoundry`` line in the README's example block, except ``verify``."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["qfoundry"] and argv[1:2] != ["verify"]]


FIXTURES = {f"verify_report_seed{seed}.json": functools.partial(verify_report, seed) for seed in REPORT_SEEDS}
for name, argv in {**README_EXAMPLES, **SCENARIO_EXAMPLES}.items():
    FIXTURES[name] = functools.partial(cli_output, argv)
    if "csv" in argv:
        FIXTURES[name + ".meta.json"] = functools.partial(cli_output, argv, ".meta.json")


@pytest.mark.parametrize("name", list(FIXTURES))
def test_output_matches_golden_bytes(name):
    assert FIXTURES[name]().encode("utf-8") == (GOLDEN / name).read_bytes()


def test_every_readme_example_is_pinned():
    assert sorted(readme_examples()) == sorted(README_EXAMPLES.values())


def test_every_module_name_in_the_readme_exists():
    # a backticked `module.NAME` for a qfoundry module must still resolve, so a
    # constant or function that the code drops cannot linger in the README
    pattern = rf"`({'|'.join(MODULES)})\.(\w+)`"
    named = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert named
    missing = [
        f"{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"qfoundry.{module}"), name)
    ]
    assert missing == []


if __name__ == "__main__":
    for name, produce in FIXTURES.items():
        data = produce().encode("utf-8")
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(name)
