"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload simulate-g34 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's CLI command runs as a child process
(``fiberbundle.cli.main`` at ``--workers 1``), whole runs back to back for at
most ``--seconds`` (always at least one), and before and after each a
reference process times a fixed task outside the program: importing numpy,
scipy.optimize and scipy.special.  ``wall_rel`` is the median over the runs
of the CLI's wall time over the mean of its two neighbouring reference times.
On a shared host the speed of the whole machine can drift by 1.8x within
minutes, which moves raw wall times from one benchmark run to the next by
far more than any gate could allow; the ratio to a task timed alongside
cancels that drift.  The fastest raw wall time is printed for information.
``setup_s`` is the time from spawning a CLI child until its
``import fiberbundle.cli`` finished, in the same way made relative to the
neighbouring reference times (median over the runs) and then scaled to
seconds by the reference's time on an idle host.  ``peak_rss_mb`` is the
median over the runs.

With ``--trace 1`` the command runs in this process through
``fiberbundle.cli.main``: once plain and once with timing wrappers on each
layer's public functions (see ``tracing.py``), in pairs for at most
``--seconds``.  The per-layer metrics come from the pair whose traced wall
time is the median, and ``trace.overhead_s`` is its traced minus plain wall
time.  The order within a pair alternates from pair to pair, starting from
the seed's parity, so warm-up and drift do not always push
``trace.overhead_s`` the same way.  Spans are written to
``.perfbench_work/spans-<workload>.jsonl``.

Every run's output files are checked (see ``workloads.py``); a run that
exits non-zero or fails its check counts in ``failed``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The code under test is ``src/fiberbundle`` of the
checkout holding this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


# The child notes on its first line of standard error the time.monotonic()
# reading at which ``import fiberbundle.cli`` finished.  That clock is shared
# by all processes, so the parent's reading before the spawn gives set-up time.
_IMPORTED = "imported at "
_CLI = ("import sys, time\n"
        "import fiberbundle.cli as cli\n"
        f"print({_IMPORTED!r}, time.monotonic(), sep='', file=sys.stderr, flush=True)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
# A fixed task outside the program, the imports that dominate the CLI's own
# start-up.  Timed in its own process before and after every CLI run, it
# follows the host's speed, which on a shared host can drift by 1.8x in minutes.
_REFERENCE = "import numpy, scipy.optimize, scipy.special"
# The reference task's wall time on an idle 2-core Xeon VM (Python 3.11,
# numpy 2.4, scipy 1.17); set-up time is reported at that speed.
_REFERENCE_S = 0.7


def _spawn(code: str, args: list[str] = ()) -> tuple[float, float, float, int, str]:
    """Start time, wall seconds, peak RSS in MB, exit code and standard error
    of ``python -c code *args`` run in the checkout."""
    with tempfile.TemporaryFile("w+", dir=WORK) as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return start, wall, usage.ru_maxrss / 1024.0, proc.returncode, err.read()


def _reference() -> float:
    _, wall, _, rc, err = _spawn(_REFERENCE)
    if rc != 0:
        raise RuntimeError(f"the reference process failed:\n{err}")
    return wall


def _run_cli(args: list[str]) -> tuple[float, float, float, int, str]:
    """Set-up seconds, wall seconds, peak RSS in MB, exit code and standard
    error of one CLI child."""
    start, wall, peak, rc, err = _spawn(_CLI, args)
    stamp, _, rest = err.partition("\n")
    if not stamp.startswith(_IMPORTED):
        raise RuntimeError(f"importing fiberbundle.cli failed:\n{err}")
    return float(stamp[len(_IMPORTED):]) - start, wall, peak, rc, rest


def _check(workload, outdir: Path, seed: int, rc: int, stderr_text: str = "") -> bool:
    """True when the run exited 0 and its outputs pass the workload's check."""
    if rc != 0:
        print(f"{workload.name}: exit code {rc}\n{stderr_text}", file=sys.stderr)
        return False
    try:
        workload.check(outdir, seed)
    except Exception:  # any failure of a check is a failed run, reported with its traceback
        print(f"{workload.name}: output check failed\n{traceback.format_exc()}", file=sys.stderr)
        return False
    return True


def _keep_going(started: float, last: float, seconds: float) -> bool:
    # run again only if one more run of the same length still fits
    return time.monotonic() - started + last <= seconds


def measure_end_to_end(workload, seed: int, seconds: float) -> dict:
    """CLI child processes, each between two reference processes, for ``seconds``."""
    WORK.mkdir(exist_ok=True)
    started = time.monotonic()
    refs = [_reference()]
    rel, setup, walls, rss = [], [], [], []
    attempted = failed = 0
    while True:
        outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            imported, wall, peak, rc, err = _run_cli([*workload.args(seed), "--out", str(outdir)])
            attempted += 1
            failed += not _check(workload, outdir, seed, rc, err)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        refs.append(_reference())
        around = (refs[-2] + refs[-1]) / 2
        rel.append(wall / around)
        setup.append(imported / around)
        walls.append(wall)
        rss.append(peak)
        if not _keep_going(started, wall + refs[-1], seconds):
            break
    print(f"{workload.name} fastest wall {min(walls)!r} s, median reference "
          f"{statistics.median(refs)!r} s, {len(walls)} CLI runs")
    metrics = {
        "wall_rel": statistics.median(rel),
        "setup_s": _REFERENCE_S * statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit}
                        for k, unit in spec_units("end_to_end").items()}}


def _output_facts(outdir: Path) -> dict:
    facts = {"cli.bytes_written": sum(p.stat().st_size for p in outdir.iterdir())}
    tail = outdir / "tail_fit.json"
    facts["stats.tail_points"] = json.loads(tail.read_text())["n_points"] if tail.exists() else 0
    return facts


def measure_layers(workload, seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    """Paired plain and traced in-process runs; the per-layer metrics of the
    pair whose traced wall time is the median, so its self times add up."""
    from fiberbundle import cli

    WORK.mkdir(exist_ok=True)
    if spans_path is not None and spans_path.exists():
        spans_path.unlink()
    runs = []
    attempted = failed = 0
    started = time.monotonic()
    while True:
        walls = {}
        tracer = tracing.Tracer(run_id=f"{workload.name}/{seed}/{len(runs)}")
        plain_first = (seed + len(runs)) % 2 == 0
        for traced in (False, True) if plain_first else (True, False):
            outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
            try:
                argv = [*workload.args(seed), "--out", str(outdir)]
                start = time.perf_counter()
                if traced:
                    with tracing.installed(tracer):
                        rc = tracer.call("cli.main", "cli", cli.main, argv)
                else:
                    rc = cli.main(argv)
                walls[traced] = time.perf_counter() - start
                attempted += 1
                failed += not _check(workload, outdir, seed, rc)
                if traced:
                    metrics = tracing.layer_metrics(tracer.finished())
                    metrics.update(_output_facts(outdir))
                    if spans_path is not None:
                        tracer.write(spans_path)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
        metrics["trace.overhead_s"] = walls[True] - walls[False]
        runs.append(metrics)
        if not _keep_going(started, walls[False] + walls[True], seconds):
            break
    middle = sorted(runs, key=lambda r: r["trace.wall_s"])[(len(runs) - 1) // 2]
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": middle[k], "unit": unit}
                        for k, unit in spec_units("per_layer").items()}}


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fiberbundle" / "cli.py").is_file():
        print(f"error: no fiberbundle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        spans_path = WORK / f"spans-{workload.name}.jsonl"
        result = measure_layers(workload, args.seed, args.seconds, spans_path)
    else:
        result = measure_end_to_end(workload, args.seed, args.seconds)
    for name, m in result["metrics"].items():
        print(f"{workload.name} {name} {m['value']!r} {m['unit']}")
    print(f"{workload.name} error_rate {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
