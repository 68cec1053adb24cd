"""Outside-in spans around the public functions each fiberbundle layer exposes.

The benchmark never edits the program: for a traced run it replaces the
attribute a caller looks up (for example ``fiberbundle.cli.sample_bundle_strengths``
or ``fiberbundle.loadshare.absorption_probabilities``) with a timing wrapper,
and puts the original back when the run ends.  Spans stay in memory until the
run is over and are written out afterwards.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "loadshare", "cascade", "distributions", "gibbs", "stats", "threshold")


class Target(NamedTuple):
    """One wrapped name: ``owner`` is a module path, optionally followed by a
    class name (``fiberbundle.distributions.StrengthModel``)."""

    owner: str
    attr: str
    layer: str

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.attr}"


# Each entry is the name the caller resolves at call time.  cmd_cycles calls
# cycles_to_failure_samples, which looks up sample_bundle_strengths in the
# cascade module, so both lookups are wrapped.
TARGETS = (
    Target("fiberbundle.cli", "sample_bundle_strengths", "cascade"),
    Target("fiberbundle.cli", "cycles_to_failure_samples", "cascade"),
    Target("fiberbundle.cascade", "sample_bundle_strengths", "cascade"),
    Target("fiberbundle.loadshare", "absorption_probabilities", "loadshare"),
    Target("fiberbundle.distributions.StrengthModel", "sample", "distributions"),
    Target("fiberbundle.gibbs", "strength_percentile", "gibbs"),
    Target("fiberbundle.gibbs", "build_gibbs", "gibbs"),
    Target("fiberbundle.gibbs", "lmf_fit", "gibbs"),
    Target("fiberbundle.stats", "weibull_plot_from_samples", "stats"),
    Target("fiberbundle.stats", "lower_tail_slope", "stats"),
    Target("fiberbundle.threshold", "irwin_hall_pdf", "threshold"),
    Target("fiberbundle.threshold.OrderStatJointDensity", "mixture", "threshold"),
    Target("fiberbundle.threshold.OrderStatJointDensity", "direct", "threshold"),
)


class Span(NamedTuple):
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced run; nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = Span(span_id, name, layer, start, end, parent, run_id)

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, layer: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (used for the root span)."""
        return self.wrap(fn, name, layer)(*args)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)

    def write(self, path: Path) -> None:
        with open(path, "a") as fh:
            for span in self.finished():
                fh.write(json.dumps(span._asdict()) + "\n")


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


@contextmanager
def installed(tracer: Tracer):
    """Replace every target with a timing wrapper; restore the originals on exit."""
    saved = []
    try:
        for t in TARGETS:
            owner = _resolve_owner(t.owner)
            original = vars(owner)[t.attr]
            saved.append((owner, t.attr, original))
            setattr(owner, t.attr, tracer.wrap(original, t.span_name, t.layer))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the durations of its children."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times plus the named per-function totals and counts.

    The ``<layer>.self_s`` values of all layers add up to the root span's
    duration, ``trace.wall_s``.
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    own_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        out[f"{s.layer}.self_s"] += own[s.span_id]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own_by_name[s.name] = own_by_name.get(s.name, 0.0) + own[s.span_id]
        calls[s.name] = calls.get(s.name, 0) + 1
    chunks = sum(1 for s in spans if s.name == "distributions.sample"
                 and s.parent is not None and by_id[s.parent].layer == "cascade")
    roots = [s for s in spans if s.parent is None]
    out.update({
        "loadshare.solve_s": total.get("loadshare.absorption_probabilities", 0.0),
        "loadshare.solves": calls.get("loadshare.absorption_probabilities", 0),
        "cascade.chunks": chunks,
        "cascade.s_per_chunk": out["cascade.self_s"] / chunks if chunks else 0.0,
        "distributions.sample_s": total.get("distributions.sample", 0.0),
        "gibbs.build_s": total.get("gibbs.build_gibbs", 0.0),
        "gibbs.builds": calls.get("gibbs.build_gibbs", 0),
        "gibbs.lmf_s": total.get("gibbs.lmf_fit", 0.0),
        "stats.weibull_plot_s": total.get("stats.weibull_plot_from_samples", 0.0),
        "stats.tail_fit_s": total.get("stats.lower_tail_slope", 0.0),
        "threshold.irwin_hall_s": total.get("threshold.irwin_hall_pdf", 0.0),
        "threshold.irwin_hall_calls": calls.get("threshold.irwin_hall_pdf", 0),
        "threshold.mixture_self_s": own_by_name.get("threshold.mixture", 0.0),
        "threshold.direct_s": total.get("threshold.direct", 0.0),
        "trace.wall_s": sum(s.duration for s in roots),
    })
    return out
