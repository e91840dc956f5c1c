"""qfoundry benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client in a fresh process, see README.md):
``verify``, ``cli``, ``sampling`` and ``bounds``. With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run; names and units come from
``BENCHMARK.json``. The line before the result records the environment.
This process never imports qfoundry or numpy; it exits 2 without a result
when the checkout has no ``src/qfoundry``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify", "cli", "sampling", "bounds")
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
IMPORT_SAMPLES = 3
INTERPRETER_SAMPLES = 5
WORKER_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def launch_worker(root: Path, args: argparse.Namespace, *extra: str) -> dict:
    """Start a worker, wait for it, and return its last stdout line as JSON."""
    launched_at = time.monotonic()
    argv = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--launched-at", repr(launched_at), *extra,
    ]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=root, env=child_env(root), timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end_metrics(setup_samples: list[float], worker: dict) -> dict:
    """The end-to-end metric values of one untraced run from the worker's raw samples."""
    durations = worker["durations_s"]
    ops = len(durations)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": 1000.0 * statistics.median(durations),
        "ops_per_s": ops / sum(durations),
        "cpu_ms_per_op": 1000.0 * sum(worker["cpu_s"]) / ops,
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "success_ratio": 1.0 - worker["failed"] / worker["attempted"],
    }


def with_units(values: dict, specs: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric in ``specs``, in their order."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


def parse_importtime(stderr: str) -> dict:
    """Milliseconds spent importing scipy, numpy and qfoundry from ``-X importtime`` output.

    scipy is the cumulative time of its outermost entries, numpy that of its
    outermost entries outside scipy's, and qfoundry the cumulative time of
    ``qfoundry`` minus both: its own modules and the rest they import.
    """
    pending = {}  # depth -> finished entries whose parent has not been listed yet
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = (name.strip(), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = [node for nodes in pending.values() for node in nodes]

    def outermost(package: str, nodes, skip: str = "") -> int:
        total = 0
        for name, cumulative, children in nodes:
            if name == package or name.startswith(package + "."):
                total += cumulative
            elif not (skip and (name == skip or name.startswith(skip + "."))):
                total += outermost(package, children, skip)
        return total

    scipy = outermost("scipy", roots)
    numpy = outermost("numpy", roots, skip="scipy")
    qfoundry = outermost("qfoundry", roots) - scipy - numpy
    return {"scipy": scipy / 1000.0, "numpy": numpy / 1000.0, "qfoundry": qfoundry / 1000.0}


def probe_imports(root: Path) -> dict:
    """Per-layer metrics of interpreter start and module import, each a median of fresh processes."""
    env = child_env(root)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qfoundry.cli"],
            capture_output=True, text=True, cwd=root, env=env, timeout=60, check=True,
        )
        imports.append(parse_importtime(done.stderr))
    interpreter = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, timeout=60, check=True)
        interpreter.append(1000.0 * (time.perf_counter() - start))
    metrics = {f"cli.import.{lib}_ms": statistics.median(s[lib] for s in imports) for lib in ("scipy", "numpy", "qfoundry")}
    metrics["cli.interpreter_ms"] = statistics.median(interpreter)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one qfoundry benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qfoundry" / "__init__.py").is_file():
        print(f"error: {root} has no src/qfoundry; run from the root of a qfoundry checkout", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.trace:
            worker = launch_worker(root, args)
            extra = probe_imports(root)
            extra["trace.overhead_pct"] = worker["overhead_pct"]
            values = tracer.layer_metrics(worker["trace_stats"], worker["traced_ops"], extra)
            metrics = with_units(values, spec["per_layer"])
        else:
            setup = [launch_worker(root, args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            worker = launch_worker(root, args)
            metrics = with_units(end_to_end_metrics([*setup, worker["setup_s"]], worker), spec["end_to_end"])
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": load_at_start,
        "platform": platform.platform(),
        **worker["environment"],
        "ops_timed": len(worker["durations_s"]),
        "ops_attempted": worker["attempted"],
        "failures": worker["failures"],
    }
    print("environment: " + json.dumps(record))
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
