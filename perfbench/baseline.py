"""Run every workload several times and summarise the spread of each metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with its own seed, as a benchmark
harness would start it.  For every end-to-end metric the summary gives the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median beside the metric's bound; a spread above a third
of the bound is flagged.  One traced run per workload, with the first seed,
adds the per-layer metrics and checks that the layers' self times add up to
the traced wall time.  ``--runs 1`` is a quick pass over all four workloads.
Every run measures for ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent

UNMEASURED = [
    "--workers > 1 scaling: on a shared 2-core machine process-pool timings vary far more "
    "between runs than --workers 1 timings",
    "the analyze command: its inputs are tiny",
    "4x4 grids (the 65,535-solve share table): one such CLI run takes 4.5-7 s on a shared "
    "2-core VM, so a 30 s benchmark run would hold only three to five of them; simulate and "
    "gibbs run on a 3x4 grid (4,095 solves)",
    "raw CLI wall time: printed beside the metrics but not gated, because the host's speed "
    "drifts between benchmark runs by more than any bound allows; wall_rel is gated instead",
    "spans inside the program, including per-run manifest.json telemetry; spans here come "
    "only from wrappers the benchmark installs around public functions",
]


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if got.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {got.returncode}:\n{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def _summary(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    report: dict = {"environment": run.environment(), "run_seconds": seconds,
                    "seeds": seeds, "workloads": {}, "unmeasured": UNMEASURED}
    for name in (w["name"] for w in spec["workloads"]):
        results = [_one(name, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"error_rate": failed / attempted, "attempted": attempted, "end_to_end": {}}
        print(f"{name}: error_rate {failed / attempted} ({failed} of {attempted} runs)")
        for metric, (unit, bound) in bounds.items():
            s = _summary([r["metrics"][metric]["value"] for r in results], bound)
            entry["end_to_end"][metric] = {"unit": unit, **s}
            flag = "" if s["steady"] else "  <-- spread above bound/3"
            print(f"  {metric:12s} median {s['median']:.6g} {unit} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")
        layers = {k: v["value"] for k, v in _one(name, seeds[0], seconds, 1)["metrics"].items()}
        selfs = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        entry["per_layer"] = layers
        entry["self_time_sum_s"] = selfs
        print(f"  layers' self times add up to {selfs:.4f} s of traced wall "
              f"{layers['trace.wall_s']:.4f} s; tracing overhead "
              f"{layers['trace.overhead_s']:.4f} s")
        units = run.spec_units("per_layer")
        for k, v in layers.items():
            if v:
                print(f"    {k} {v:.6g} {units[k]}")
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
