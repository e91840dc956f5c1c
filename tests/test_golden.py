"""Golden fixtures: the verify reports and README CLI examples, byte for byte.

A change that moves any of these bytes rewrites the fixture in the same
commit (``PYTHONPATH=src python tests/test_golden.py`` regenerates them all)
and argues for the change in CHANGES.md.
"""

import contextlib
import functools
import io
import os
import pathlib

import pytest

from qfoundry import cli, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPORT_SEEDS = (2026, 17, 99)
README_EXAMPLES = {
    "readme_popper.json": ["popper", "--sigma-plus", "1.0", "--sigma-minus", "0.5", "--width", "0.5"],
    "readme_leggett_samples.json": [
        "leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "1000000",
    ],
}


def verify_report(seed):
    return verify.render_report(verify.run_core_checks(seed), seed)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


FIXTURES = {f"verify_report_seed{seed}.json": functools.partial(verify_report, seed) for seed in REPORT_SEEDS}
FIXTURES.update({name: functools.partial(cli_stdout, argv) for name, argv in README_EXAMPLES.items()})


@pytest.mark.parametrize("name", list(FIXTURES))
def test_output_matches_golden_bytes(name, monkeypatch):
    monkeypatch.delenv("QFOUNDRY_SEED", raising=False)
    assert FIXTURES[name]().encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    os.environ.pop("QFOUNDRY_SEED", None)
    for name, produce in FIXTURES.items():
        (GOLDEN / name).write_bytes(produce().encode("utf-8"))
