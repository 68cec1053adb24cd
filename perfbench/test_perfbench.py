"""Tests of the benchmark's own logic at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import importlib
import json

import pytest

import run
import tracing
from fiberbundle import cli
from workloads import (
    WORKLOADS,
    OutputError,
    cycles_workload,
    density_workload,
    gibbs_workload,
    simulate_workload,
)

TINY = {
    "simulate": (simulate_workload(rows=2, cols=2, replicas=150_000), "samples.csv", 0),
    "cycles": (cycles_workload(rows=3, cols=3, replicas=3_000), "cycles.csv", 0),
    "gibbs": (gibbs_workload(rows=2, cols=2, replicas=20_000, percentiles="1,10,50"),
              "potentials.csv", 3),
    "density": (density_workload(k=2, l=4, n=6, lo=0.2, hi=0.6, step=0.2), "density.csv", 3),
}


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def span(span_id, layer, start, end, parent):
    return tracing.Span(span_id, f"{layer}.f{span_id}", layer, start, end, parent, "r")


def corrupt(path, column):
    """Scale one value in the second data row by 1.5 (or add 1 to an integer)."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split(",")
    value = fields[column]
    fields[column] = str(int(value) + 1) if value.isdigit() else repr(float(value) * 1.5)
    lines[2] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def test_self_times_subtract_children():
    spans = [
        span(0, "cli", 0.0, 10.0, None),
        span(1, "cascade", 1.0, 4.0, 0),
        span(2, "distributions", 2.0, 3.0, 1),
        span(3, "loadshare", 5.0, 9.0, 0),
        span(4, "loadshare", 6.0, 7.5, 3),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.5})
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["cascade.self_s"] == pytest.approx(2.0)
    assert m["loadshare.self_s"] == pytest.approx(4.0)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["distributions.self_s"] == pytest.approx(1.0)
    assert m["cascade.chunks"] == 0  # span 2 is not a StrengthModel.sample call


@pytest.mark.parametrize("kind", sorted(TINY))
def test_check_accepts_a_run_and_rejects_a_corrupted_file(kind, tmp_path):
    workload, name, column = TINY[kind]
    assert cli.main([*workload.args(5), "--out", str(tmp_path)]) == 0
    workload.check(tmp_path, 5)
    corrupt(tmp_path / name, column)
    with pytest.raises(OutputError):
        workload.check(tmp_path, 5)


def test_check_rejects_a_missing_file(tmp_path):
    workload, name, _ = TINY["cycles"]
    assert cli.main([*workload.args(5), "--out", str(tmp_path)]) == 0
    (tmp_path / name).unlink()
    with pytest.raises(OutputError):
        workload.check(tmp_path, 5)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_untraced_run_reports_every_end_to_end_metric(work):
    result = run.measure_end_to_end(TINY["cycles"][0], seed=2, seconds=0)
    assert (result["attempted"], result["failed"]) == (1, 0)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.spec_units("end_to_end"))
    assert m["setup_s"] > 0 and m["wall_rel"] > 0


def test_traced_run_reports_every_layer_metric(work):
    workload = TINY["cycles"][0]
    result = run.measure_layers(workload, seed=2, seconds=0, spans_path=work / "spans.jsonl")
    assert (result["attempted"], result["failed"]) == (2, 0)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.spec_units("per_layer"))
    assert m["cascade.chunks"] == 1
    assert m["loadshare.solves"] == 511
    selfs = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert selfs == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert (work / "spans.jsonl").read_text().count("\n") > 511


def test_failed_check_raises_error_rate(work):
    workload, name, column = TINY["cycles"]

    def corrupting_check(outdir, seed):
        corrupt(outdir / name, column)
        workload.check(outdir, seed)

    broken = dataclasses.replace(workload, check=corrupting_check)
    result = run.measure_layers(broken, seed=2, seconds=0)
    assert (result["attempted"], result["failed"]) == (2, 2)


def _snapshot():
    modules = [importlib.import_module(f"fiberbundle.{m}") for m in tracing.LAYERS]
    owners = modules + [tracing._resolve_owner(t.owner) for t in tracing.TARGETS]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_restore_module_attributes():
    loadshare = importlib.import_module("fiberbundle.loadshare")
    original = loadshare.absorption_probabilities
    before = _snapshot()
    with pytest.raises(KeyError):
        with tracing.installed(tracing.Tracer("r")):
            assert loadshare.absorption_probabilities is not original
            raise KeyError("leave the block by an exception")
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is attrs[k] for k in attrs), owner
