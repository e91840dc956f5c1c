"""One workload client: a fresh process that sets up, runs a closed loop of
ops for a fixed time, and checks every op's output afterwards.

Usage (normally started by run.py from the root of a checkout)::

    python3 perfbench/worker.py --workload bounds --seed 1 --seconds 15 \
        --trace 0 --launched-at <time.monotonic() of the launcher>

``--setup-only`` stops after set-up and reports only its duration. The
last stdout line is one JSON object; after a full run it includes the
library versions and the BLAS thread count.

A workload is ``setup(seed, root) -> inputs``, ``op(inputs, k) -> output``
and ``check(inputs, k, output) -> error or None``. Set-up makes every input
from the seed; ops call the program only through module attributes, so the
tracer's wrappers see them; checks run after the timed interval. The cli
workload never imports qfoundry in this process: each op is a fresh
``python -m qfoundry.cli`` process.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from run import child_env

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
TRACE_MIN_OPS = 2  # ops in each half of a traced run, whatever their length
TSIRELSON = 2.0 * math.sqrt(2.0)

# ---------------------------------------------------------------- verify


def verify_setup(seed: int, root: Path) -> dict:
    from qfoundry import verify

    rng = random.Random(seed)
    return {"verify": verify, "seeds": [rng.randrange(1, 2**31) for _ in range(64)]}


def verify_op(inputs: dict, k: int):
    verify = inputs["verify"]
    seed = inputs["seeds"][k % len(inputs["seeds"])]
    results = verify.run_core_checks(seed)
    return [r.passed for r in results], verify.render_report(results, seed)


def verify_check(inputs: dict, k: int, output) -> str | None:
    passed, report = output
    failing = [i + 1 for i, ok in enumerate(passed) if not ok]
    if len(passed) != 11 or failing:
        return f"criteria failing: {failing} of {len(passed)}"
    parsed = json.loads(report)
    if not parsed["all_passed"] or parsed["seed"] != inputs["seeds"][k % len(inputs["seeds"])]:
        return "rendered report disagrees with the check results"
    return None


# -------------------------------------------------------------- sampling

SAMPLES = 10_000_000
SHARDS = 2


def sampling_setup(seed: int, root: Path) -> dict:
    import numpy as np
    from qfoundry import hvmodels, verify

    scenarios = verify.leggett_grid_scenarios(97)
    rng = random.Random(seed)
    expected = [
        (
            float(np.dot(p.u.direction, p.a.direction)),
            float(np.dot(p.v.direction, p.b.direction)),
            -float(np.dot(p.a.direction, p.b.direction)),
        )
        for p in scenarios
    ]
    return {
        "hvmodels": hvmodels,
        "scenarios": scenarios,
        "expected": expected,
        "offset": rng.randrange(len(scenarios)),
        "seed": rng.randrange(2**31),
    }


def sampling_op(inputs: dict, k: int):
    index = (inputs["offset"] + k) % len(inputs["scenarios"])
    return inputs["hvmodels"].leggett_expectations(
        inputs["scenarios"][index], "monte-carlo", n_samples=SAMPLES, seed=inputs["seed"] + k, shards=SHARDS
    )


def sampling_check(inputs: dict, k: int, result) -> str | None:
    expected = inputs["expected"][(inputs["offset"] + k) % len(inputs["scenarios"])]
    if result.n_samples != SAMPLES:
        return f"n_samples {result.n_samples} != {SAMPLES}"
    measured = (
        (result.mean_a, result.stderr_a),
        (result.mean_b, result.stderr_b),
        (result.mean_ab, result.stderr_ab),
    )
    for label, (mean, stderr), ref in zip(("A", "B", "AB"), measured, expected):
        if not abs(mean - ref) <= 5.0 * stderr + 1e-12:
            return f"<{label}> = {mean} is {abs(mean - ref) / max(stderr, 1e-300):.1f} stderr from {ref}"
    return None


# ---------------------------------------------------------------- bounds

STATES_PER_OP = 32
DISTINCT_BATCHES = 8  # ops cycle over these; each distinct state is checked once


def bounds_setup(seed: int, root: Path) -> dict:
    import numpy as np
    from qfoundry import inequalities, qcore

    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(DISTINCT_BATCHES):
        batch = []
        for _ in range(STATES_PER_OP):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            batch.append(qcore.StateVector((2, 2), psi / np.linalg.norm(psi)))
        batches.append(batch)
    return {"inequalities": inequalities, "batches": batches, "first": {}}


def bounds_op(inputs: dict, k: int):
    inequalities = inputs["inequalities"]
    out = []
    for state in inputs["batches"][k % DISTINCT_BATCHES]:
        optimum = inequalities.chsh_optimize(state)
        tlm = inequalities.tlm_check(optimum.record)
        out.append((optimum.s_max, tlm.lhs, tlm.rhs, tlm.satisfied))
    return out


def _two_qubit_correlations(amplitudes):
    """T[i, j] = <psi| sigma_i (x) sigma_j |psi>, computed here independently of qcore."""
    import numpy as np

    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    psi = np.asarray(amplitudes).reshape(2, 2)
    return np.real(np.einsum("ab,iac,jbd,cd->ij", psi.conj(), paulis, paulis, psi))


def bounds_check(inputs: dict, k: int, output) -> str | None:
    import numpy as np

    index = k % DISTINCT_BATCHES
    first = inputs["first"]
    if index in first:
        return None if first[index] == output else f"batch {index} gave different results on a repeat"
    first[index] = output
    oracle = inputs["inequalities"].chsh_planar_grid_value
    for i, (state, (s, lhs, rhs, satisfied)) in enumerate(zip(inputs["batches"][index], output)):
        singular = np.linalg.svd(_two_qubit_correlations(state.amplitudes), compute_uv=False)
        horodecki = 2.0 * math.sqrt(singular[0] ** 2 + singular[1] ** 2)
        if not s <= TSIRELSON + 1e-9:
            return f"state {index}.{i}: S = {s} exceeds 2 sqrt 2"
        if not s <= horodecki + 1e-9:
            return f"state {index}.{i}: S = {s} exceeds 2 sqrt(s0^2 + s1^2) = {horodecki}"
        grid = oracle(state)
        if not s >= grid - 1e-9:
            return f"state {index}.{i}: S = {s} below the grid oracle {grid}"
        if not (satisfied and lhs <= rhs + 1e-12):
            return f"state {index}.{i}: TLM violated ({lhs} > {rhs})"
    return None


# ------------------------------------------------------------------- cli


def _quantities(table: dict) -> dict:
    return {row[0]: row[1] for row in table["rows"]}


def _near(value, ref, tol) -> bool:
    return abs(float(value) - ref) <= tol


def _check_lhv(t):
    same = [row[4] for row in t["rows"]]
    return (
        t["meta"]["p_same_minimum_exact"] == "1/3"
        and _near(t["meta"]["p_same_minimum"], 1 / 3, 1e-15)
        and len(same) == 8
        and min(same) >= 1 / 3 - 1e-15
    )


def _check_polarization(t):
    _, p_same, p_both, _ = t["rows"][0]
    c2 = math.cos(math.radians(120.0)) ** 2
    return _near(p_same, c2, 1e-12) and _near(p_both, c2 / 2, 1e-12)


def _check_chsh(gamma_deg):
    # S_max = 2 sqrt(1 + sin^2 2 gamma) for cos g |01> - sin g |10>; the singlet is gamma = 45
    expected = 2.0 * math.sqrt(1.0 + math.sin(math.radians(2 * gamma_deg)) ** 2)
    return lambda t: _near(_quantities(t)["s_max"], expected, 1e-6)


def _check_leggett_scan(t):
    m = t["meta"]
    return (
        len(t["rows"]) == 9001
        and float(m["max_violation"]) > 0.10
        and _near(m["argmax_phi_deg"], float(m["stationarity_root_deg"]), 0.5)
        and _near(m["argmax_phi_deg"], 18.8, 1.0)
    )


def _check_leggett_model(t):
    q = _quantities(t)
    # u = v = z, a = x, b = y: every analytic mean (u.a, v.b, -a.b) is 0
    return all(
        _near(q[f"mean_{x}_analytic"], 0.0, 1e-12) and _near(q[f"mean_{x}_mc"], 0.0, 5.0 * float(q[f"stderr_{x}"]))
        for x in ("a", "b", "ab")
    )


def _check_kcbs(t):
    return _near(_quantities(t)["s_kcbs"], 5.0 - 4.0 * math.sqrt(5.0), 1e-9)


def _check_hardy(t):
    _, p1, p2, p3, p4, closed = t["rows"][0]
    return max(p1, p2, p3) < 1e-12 and _near(p4, closed, 1e-10) and _near(p4, 0.0876, 1e-4)


def _check_hom(t):
    amplitudes = {(row[0], row[1]): row[2] for row in t["rows"]}
    r = 1.0 / math.sqrt(2.0)
    return (
        t["meta"]["coincidence_probability"] == 0.0
        and set(amplitudes) == {(2, 0), (0, 2)}
        and all(_near(abs(a), r, 1e-12) for a in amplitudes.values())
    )


def _check_noon(t):
    return _near(t["meta"]["entanglement_entropy_bits"], 1.0, 1e-12)


def _check_popper(t):
    return _near(_quantities(t)["product_conditional"], 0.5, 1e-3)


def _check_tlm(t):
    q = _quantities(t)
    return q["satisfied"] is True and _near(q["lhs"], q["rhs"], 1e-12) and _near(q["chsh_value"], TSIRELSON, 1e-12)


# The ten scenarios and the README examples; one op runs one entry.
CLI_COMMANDS: list[tuple[list[str], Callable[[dict], bool]]] = [
    (["lhv-table"], _check_lhv),
    (["polarization-qm"], _check_polarization),
    (["chsh"], _check_chsh(45.0)),
    (["chsh", "--state", "partial", "--gamma", "22.5"], _check_chsh(22.5)),
    (["leggett"], _check_leggett_scan),
    (["leggett", "--scan-phi", "0:90:0.01", "--format", "csv"], _check_leggett_scan),
    (["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "1000000"], _check_leggett_model),
    (["kcbs"], _check_kcbs),
    (["hardy", "--gamma", "22.5"], _check_hardy),
    (["hom"], _check_hom),
    (["noon"], _check_noon),
    (["popper", "--sigma-plus", "1.0", "--sigma-minus", "0.5", "--width", "0.5"], _check_popper),
    (["tlm"], _check_tlm),
]


def scratch_dir(root: Path) -> Path:
    """This process's directory for cli output files; main removes it."""
    return root / ".perfbench_tmp" / f"worker-{os.getpid()}"


def cli_setup(seed: int, root: Path) -> dict:
    env = child_env(root)
    scratch = scratch_dir(root)
    scratch.mkdir(parents=True, exist_ok=True)
    version = subprocess.run(
        [sys.executable, "-m", "qfoundry.cli", "--version"],
        capture_output=True, text=True, env=env, cwd=root, timeout=CHILD_TIMEOUT_S,
    )
    if version.returncode != 0 or not version.stdout.startswith("qfoundry "):
        raise RuntimeError(f"qfoundry --version failed: {version.stderr.strip()}")
    return {
        "env": env,
        "root": root,
        "scratch": scratch,
        "seed": random.Random(seed).randrange(2**31),
        "launcher": [sys.executable, "-m", "qfoundry.cli"],
    }


def cli_op(inputs: dict, k: int):
    args, _ = CLI_COMMANDS[k % len(CLI_COMMANDS)]
    argv = [*inputs["launcher"], *args, "--seed", str(inputs["seed"] + k)]
    output = None
    if "csv" in args:
        output = inputs["scratch"] / f"op-{k}.csv"
        argv += ["--output", str(output)]
    env = dict(inputs["env"], PERFBENCH_TRACE_FILE=str(inputs["scratch"] / f"trace-{k}.json"))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=inputs["root"], timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr, output


def _parse_cli_output(stdout: str, output: Path | None) -> dict:
    if output is None:
        return json.loads(stdout)
    with open(output, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    meta = json.loads(Path(f"{output}.meta.json").read_text(encoding="utf-8"))
    return {"meta": meta, "columns": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def cli_check(inputs: dict, k: int, output) -> str | None:
    returncode, stdout, stderr, path = output
    args, check = CLI_COMMANDS[k % len(CLI_COMMANDS)]
    name = " ".join(args)
    if returncode != 0:
        return f"{name}: exit {returncode}: {stderr.strip()[-200:]}"
    try:
        table = _parse_cli_output(stdout, path)
    except (ValueError, OSError, IndexError) as exc:
        return f"{name}: output does not parse: {exc}"
    return None if check(table) else f"{name}: headline value out of tolerance"


# ------------------------------------------------------------- the loop


@dataclass(frozen=True)
class Workload:
    setup: Callable
    op: Callable
    check: Callable
    warmup_ops: int  # untimed ops after set-up; the timed ops take the inputs after them
    cycle: int = 1  # the timed loop stops only after a whole number of cycles


WORKLOADS = {
    "verify": Workload(verify_setup, verify_op, verify_check, warmup_ops=0),
    "cli": Workload(cli_setup, cli_op, cli_check, warmup_ops=0, cycle=len(CLI_COMMANDS)),
    "sampling": Workload(sampling_setup, sampling_op, sampling_check, warmup_ops=1),
    "bounds": Workload(bounds_setup, bounds_op, bounds_check, warmup_ops=1),
}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_kb() -> int:
    """Largest RSS of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_loop(workload: Workload, inputs, first_k: int, seconds: float, min_ops: int = 1) -> dict:
    """Closed loop with one client: start ops until ``seconds`` have passed and ``min_ops`` are done."""
    durations, cpu, outputs, errors = [], [], [], {}
    k = first_k
    begin = time.perf_counter()
    while True:
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        try:
            outputs.append(workload.op(inputs, k))
        except Exception as exc:  # a failing op is counted, not fatal
            outputs.append(None)
            errors[k] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        durations.append(end - start)
        cpu.append(cpu_seconds() - cpu_before)
        k += 1
        done = k - first_k
        if end - begin >= seconds and done >= min_ops and done % workload.cycle == 0:
            break
    return {"first_k": first_k, "durations_s": durations, "cpu_s": cpu, "outputs": outputs, "errors": errors}


def check_outputs(workload: Workload, inputs, loop: dict) -> list[str]:
    """Messages for every failed op of ``loop``; an op that raised has one already."""
    failures = []
    for i, output in enumerate(loop["outputs"]):
        k = loop["first_k"] + i
        if k in loop["errors"]:
            failures.append(f"op {k}: {loop['errors'][k]}")
            continue
        try:
            message = workload.check(inputs, k, output)
        except Exception as exc:  # a malformed output fails its op
            message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append(f"op {k}: {message}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, launched_at: float) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.setup(seed, root)
    setup_s = time.monotonic() - launched_at
    if name != "cli":
        import qfoundry

        source = Path(qfoundry.__file__).resolve()
        if root.resolve() / "src" not in source.parents:
            raise RuntimeError(f"imported qfoundry from {source}, not from this checkout")
    # a traced run compares two halves, so neither may hold a cold first op
    warmup_ops = max(workload.warmup_ops, 1) if trace else workload.warmup_ops
    for k in range(warmup_ops):
        workload.op(inputs, k)
    k = warmup_ops
    result = {"setup_s": setup_s}
    if not trace:
        loops = [run_loop(workload, inputs, k, seconds)]
    else:
        plain = run_loop(workload, inputs, k, seconds / 2, min_ops=TRACE_MIN_OPS)
        k += len(plain["durations_s"])
        traced, stats = run_traced(name, workload, inputs, k, seconds / 2)
        loops = [plain, traced]
        result["trace_stats"] = stats
        result["traced_ops"] = len(traced["durations_s"])
        result["overhead_pct"] = 100.0 * (
            statistics.median(traced["durations_s"]) / statistics.median(plain["durations_s"]) - 1.0
        )
    result["peak_rss_kb"] = peak_rss_kb()
    failures = [f for loop in loops for f in check_outputs(workload, inputs, loop)]
    timed = loops[0]
    result.update(
        durations_s=timed["durations_s"],
        cpu_s=timed["cpu_s"],
        attempted=sum(len(loop["durations_s"]) for loop in loops),
        failed=len(failures),
        failures=failures[:10],
        environment=environment(),
    )
    return result


def run_traced(name: str, workload: Workload, inputs, first_k: int, seconds: float):
    import tracer as layer_trace

    if name == "cli":
        traced_inputs = dict(inputs, launcher=[sys.executable, str(HERE / "cli_main.py")])
        loop = run_loop(workload, traced_inputs, first_k, seconds, min_ops=TRACE_MIN_OPS)
        stats = layer_trace.empty_stats()
        for i in range(len(loop["durations_s"])):
            dump = inputs["scratch"] / f"trace-{first_k + i}.json"
            if dump.exists():
                layer_trace.merge_stats(stats, json.loads(dump.read_text(encoding="utf-8")))
        return loop, stats
    with layer_trace.Tracer() as active:
        loop = run_loop(workload, inputs, first_k, seconds, min_ops=TRACE_MIN_OPS)
    return loop, active.stats


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    from importlib import metadata

    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched-at", type=float, required=True, help="time.monotonic() of the launcher")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    try:
        if args.setup_only:
            WORKLOADS[args.workload].setup(args.seed, root)
            result = {"setup_s": time.monotonic() - args.launched_at}
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, args.launched_at)
    finally:
        shutil.rmtree(scratch_dir(root), ignore_errors=True)
        try:
            scratch_dir(root).parent.rmdir()
        except OSError:  # absent, or another worker still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
