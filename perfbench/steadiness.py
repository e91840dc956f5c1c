"""Steadiness record: repeat untraced runs on ten seeds and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --first-seed 111 --json B.json \
        --compare A.json --markdown perfbench/STEADINESS.md

Every workload of BENCHMARK.json runs once per seed, for its run_seconds,
the workloads interleaved. For every workload and metric it reports the
median and quartiles of the runs (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median. A spread below a third of the bound is steady. A per-seed table
sets each workload's op_p50_ms beside the Nelder-Mead evaluation count of
the seed's bounds inputs, an exact count, so that cost which follows the
seed can be told from the speed of the machine. ``--compare`` adds how far
each median moved against an earlier record, in the metric's worse
direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
# pairs that moved by 14 %, 6 % and 7 % between two sets of runs of identical
# code under an earlier harness with mixed-composition ops
WATCHED = ("bounds/op_p50_ms", "verify/op_p50_ms", "sampling/setup_s")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2].removeprefix("environment: "))
    result["wall_s"] = time.monotonic() - start
    return result


def bounds_nfev(seed: int) -> int:
    """Nelder-Mead evaluations over every distinct bounds batch of ``seed``."""
    import tracer
    import worker

    inputs = worker.bounds_setup(seed, Path.cwd())
    with tracer.Tracer() as active:
        for k in range(worker.DISTINCT_BATCHES):
            worker.bounds_op(inputs, k)
    return active.stats["nfev"]


def spread_row(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    if spread < bound / 3:
        verdict = "steady"
    elif spread < bound:
        verdict = "within bound"
    else:
        verdict = "too noisy"
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "verdict": verdict}


def record_of(runs: dict, spec: dict, seeds: list[int], nfev: list[int]) -> dict:
    """Everything the markdown needs, in a form that can be saved and compared."""
    rows = {}
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            rows[f"{workload}/{metric['name']}"] = dict(
                spread_row(values, metric["bound"]),
                unit=metric["unit"], better=metric["better"], values=values,
            )
    env = next(iter(runs.values()))[0]["environment"]
    return {
        "seeds": seeds,
        "seconds": spec["run_seconds"],
        "bounds_nfev": nfev,
        "environment": {key: env[key] for key in ("nproc", "python", "numpy", "scipy", "blas_threads")},
        "failed": {w: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)] for w, rs in runs.items()},
        "run_wall_s": sum(r["wall_s"] for rs in runs.values() for r in rs),
        "runs": sum(len(rs) for rs in runs.values()),
        "rows": rows,
    }


def markdown(record: dict, previous: dict | None) -> str:
    env, seeds, rows = record["environment"], record["seeds"], record["rows"]
    lines = [
        "# Steadiness record",
        "",
        f"{len(seeds)} untraced runs per workload, seeds {seeds[0]}..{seeds[-1]}, `--seconds {record['seconds']}`,",
        f"runs interleaved across workloads, {record['run_wall_s'] / record['runs']:.1f} s per run on average.",
        f"Machine: nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']},",
        f"BLAS threads {env['blas_threads']}. Spread is (q3 - q1) / median with `statistics.quantiles(values, n=4)`.",
        "",
        "| workload/metric | unit | median | q1 | q3 | spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        lines.append(
            f"| {name} | {row['unit']} | {row['median']:.6g} | {row['q1']:.6g} | {row['q3']:.6g} "
            f"| {100 * row['spread']:.2f} % | {100 * row['bound']:.0f} % | {row['verdict']} |"
        )
    lines += ["", "Watched pairs (moved by 14 %, 6 % and 7 % on identical code under an earlier harness):", ""]
    for name in WATCHED:
        if name in rows:
            row = rows[name]
            lines.append(
                f"- {name}: median {row['median']:.6g} {row['unit']}, spread {100 * row['spread']:.2f} % "
                f"against a bound of {100 * row['bound']:.0f} %: {row['verdict']}"
            )
    lines += [
        "",
        "Per seed: op_p50_ms of each workload, and the Nelder-Mead evaluations of the seed's",
        "bounds inputs (all distinct batches; exact, so it shows cost that follows the seed).",
        "",
        "| seed | " + " | ".join(f"{w} op_p50_ms" for w in record["failed"]) + " | bounds nfev |",
        "|---" * (len(record["failed"]) + 2) + "|",
    ]
    for i, seed in enumerate(seeds):
        cells = [f"{rows[f'{w}/op_p50_ms']['values'][i]:.1f}" for w in record["failed"]]
        lines.append(f"| {seed} | " + " | ".join(cells) + f" | {record['bounds_nfev'][i]} |")
    lines += ["", "Failed ops over all runs: " + ", ".join(
        f"{w} {failed}/{attempted}" for w, (failed, attempted) in record["failed"].items()
    ), ""]
    if previous is not None:
        old_seeds = previous["seeds"]
        lines += [
            f"## Against the earlier set (seeds {old_seeds[0]}..{old_seeds[-1]})",
            "",
            "Worse by: how far this median is from the earlier one in the metric's worse direction,",
            "as a share of the earlier median (negative is better).",
            "",
            "| workload/metric | earlier median | this median | worse by | bound | earlier spread |",
            "|---|---|---|---|---|---|",
        ]
        for name, row in rows.items():
            old = previous["rows"].get(name)
            if old is None:
                continue
            change = (row["median"] - old["median"]) / old["median"]
            worse = (-change if row["better"] == "higher" else change) + 0.0  # no "-0.00 %"
            lines.append(
                f"| {name} | {old['median']:.6g} | {row['median']:.6g} | {100 * worse:.2f} % "
                f"| {100 * row['bound']:.0f} % | {100 * old['spread']:.2f} % |"
            )
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--markdown", type=Path, help="write the record here")
    parser.add_argument("--json", type=Path, help="save the record, every run's values included")
    parser.add_argument("--compare", type=Path, help="an earlier saved record to compare medians with")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs = {workload["name"]: [] for workload in spec["workloads"]}
    for seed in seeds:
        for workload, results in runs.items():
            run = run_once(workload, seed, spec["run_seconds"])
            results.append(run)
            print(f"{workload} seed {seed} ({run['wall_s']:.1f} s): {json.dumps(run['metrics'])}", flush=True)
    sys.path.insert(0, str(Path.cwd() / "src"))
    record = record_of(runs, spec, seeds, [bounds_nfev(seed) for seed in seeds])
    previous = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    text = markdown(record, previous)
    print(text)
    if args.markdown:
        args.markdown.write_text(text, encoding="utf-8")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
