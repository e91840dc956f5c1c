"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import worker

ROOT = Path(__file__).resolve().parents[2]
# the per-layer metrics measured outside the tracer
PROBED = {name: 1.0 for name in ("cli.import.scipy_ms", "cli.import.numpy_ms", "cli.import.qfoundry_ms",
                                  "cli.interpreter_ms", "trace.overhead_pct")}


def qfoundry_bindings():
    import qfoundry.cli  # noqa: F401  (the tracer wraps the cli layer too)

    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "qfoundry" or name.startswith("qfoundry.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", ["verify", "sampling", "bounds"])
def test_inputs_are_deterministic_for_a_seed(workload):
    setup = worker.WORKLOADS[workload].setup

    def fingerprint(seed):
        inputs = setup(seed, ROOT)
        if workload == "bounds":
            return [s.amplitudes.tobytes() for batch in inputs["batches"] for s in batch]
        if workload == "sampling":
            return inputs["offset"], inputs["seed"]
        return inputs["seeds"]

    assert fingerprint(7) == fingerprint(7)
    assert fingerprint(7) != fingerprint(8)


def test_cli_inputs_are_deterministic_for_a_seed():
    seeds = [worker.cli_setup(seed, ROOT)["seed"] for seed in (7, 7, 8)]
    assert seeds[0] == seeds[1] != seeds[2]


def test_wrappers_are_removed_after_a_traced_run():
    from qfoundry import verify

    before = qfoundry_bindings()
    checks = verify.CORE_CHECKS
    with tracer.Tracer() as active:
        assert verify.CORE_CHECKS is not checks
        assert verify.render_json is not before[("qfoundry.verify", "render_json")]
        verify.check_kcbs()
    assert active.stats["functions"]["verify.check_kcbs"]["calls"] == 1
    assert verify.CORE_CHECKS is checks
    after = qfoundry_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_and_untraced_ops_return_identical_results(monkeypatch):
    from qfoundry import verify

    cheap = tuple(c for c in verify.CORE_CHECKS if c[1] not in ("leggett-model", "popper-conditional"))
    monkeypatch.setattr(verify, "CORE_CHECKS", cheap)
    for name in ("verify", "sampling", "bounds"):
        workload = worker.WORKLOADS[name]
        inputs = workload.setup(3, ROOT)
        plain = workload.op(inputs, 0)
        with tracer.Tracer() as active:
            traced = workload.op(inputs, 0)
        assert repr(traced) == repr(plain), name
        assert sum(layer["calls"] for layer in active.stats["layers"].values()) > 0, name


def test_traced_cli_op_matches_untraced(tmp_path):
    inputs = worker.cli_setup(3, ROOT)
    inputs["scratch"] = tmp_path
    k = next(i for i, (args, _) in enumerate(worker.CLI_COMMANDS) if args == ["kcbs"])
    plain = worker.cli_op(inputs, k)
    traced = worker.cli_op(dict(inputs, launcher=[sys.executable, str(worker.HERE / "cli_main.py")]), k)
    assert plain[0] == traced[0] == 0
    assert traced[1] == plain[1]
    stats = json.loads((tmp_path / f"trace-{k}.json").read_text())
    assert stats["functions"]["cli.main"]["calls"] == 1
    assert worker.cli_check(inputs, k, traced) is None


def test_metric_extraction_handles_a_failing_op():
    def op(inputs, k):
        if k == 1:
            raise ValueError("broken op")
        return k

    def check(inputs, k, output):
        return "wrong value" if k == 2 else None

    workload = worker.Workload(lambda seed, root: None, op, check, warmup_ops=0, cycle=4)
    loop = worker.run_loop(workload, None, 0, seconds=0.0)
    failures = worker.check_outputs(workload, None, loop)
    assert len(loop["durations_s"]) == 4
    assert failures == ["op 1: ValueError: broken op", "op 2: wrong value"]
    raw = {"durations_s": loop["durations_s"], "cpu_s": loop["cpu_s"], "peak_rss_kb": 1024,
           "attempted": 4, "failed": len(failures)}
    metrics = run.end_to_end_metrics([0.5, 0.7, 0.6], raw)
    assert metrics["success_ratio"] == 0.5
    assert metrics["setup_s"] == 0.6
    assert all(math.isfinite(value) for value in metrics.values())


def test_tracer_counts_errors_of_a_wrapped_function():
    from qfoundry import popper

    with tracer.Tracer() as active:
        with pytest.raises(ValueError):
            popper.conditional_uncertainties(
                popper.GaussianPairState(1.0, 0.5), popper.SlitCondition(0.5), popper.GridSpec(8)
            )
    assert active.stats["functions"]["popper.conditional_uncertainties"]["errors"] == 1
    assert tracer.layer_metrics(active.stats, 1, PROBED)["popper.errors"] == 1


def test_report_helpers_are_spans_only_outside_the_report_module():
    from qfoundry import report, verify

    table = report.ResultTable({"k": [1.5, 2.5]}, ["x"])
    table.add_row(0.25)
    with tracer.Tracer() as active:
        text = report.render_table_json(table)
        verify.render_report([], 1)
    functions = active.stats["functions"]
    assert functions["report.render_table_json"]["calls"] == 1
    assert functions["report.render_json"]["calls"] == 1  # verify's alias only
    assert functions["report.format_number"]["calls"] == 0
    assert active.stats["layers"]["report"]["bytes"] > len(text.encode("utf-8"))


def test_every_metric_of_benchmark_json_gets_a_value():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from qfoundry import verify

    with tracer.Tracer() as active:
        verify.check_kcbs()
    layer = run.with_units(tracer.layer_metrics(active.stats, 1, PROBED), spec["per_layer"])
    assert [m["unit"] for m in layer.values()] == [m["unit"] for m in spec["per_layer"]]
    raw = {"durations_s": [0.1], "cpu_s": [0.1], "peak_rss_kb": 1024, "attempted": 1, "failed": 0}
    end_to_end = run.with_units(run.end_to_end_metrics([0.5], raw), spec["end_to_end"])
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]


def test_parse_importtime_separates_scipy_numpy_and_qfoundry():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       400 |        450 |       scipy.linalg",
        "import time:       100 |        550 |     scipy.optimize",
        "import time:        70 |        920 |   qfoundry",
        "import time:        80 |       1000 | qfoundry.cli",
    ])
    assert run.parse_importtime(stderr) == {"scipy": 0.55, "numpy": 0.3, "qfoundry": 0.15}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
