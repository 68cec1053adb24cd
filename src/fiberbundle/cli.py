"""Command-line front end: seeded simulation runs and plot-ready CSV/JSON.

Commands: simulate, gibbs, analyze, cycles, density.  Options may come from a
key=value config file (--config); explicit flags win.  Every output directory
receives a manifest.json echoing the fully resolved configuration.

Exit codes: 0 success, 2 usage/configuration, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, gibbs, stats, threshold
from .cascade import (
    ChainSpec,
    StructureFunction,
    chain_strength,
    cycles_to_failure_samples,
    parse_pattern,
    sample_bundle_strengths,
)
from .distributions import StrengthModel
from .loadshare import AbsorbingRule, EqualRule, UnitRule, build_grid_graph, transition_matrix


class InputFormatError(OSError):
    """Malformed input file content."""


_CSV_BLOCK = 1 << 16


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """Write equal-length 1-d columns under a header line.

    ``repr`` of a ``tolist()`` item is the shortest round-trip text for a
    float64 and the plain digits for an int64.  Rows go out in blocks, so
    memory stays flat however many replicas there are.
    """
    cols = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(cols[0]), _CSV_BLOCK):
            texts = [map(repr, c[lo:lo + _CSV_BLOCK].tolist()) for c in cols]
            lines = texts[0] if len(texts) == 1 else map(",".join, zip(*texts))
            fh.write("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_outdir(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out!r} is not writable: {exc}") from exc
    return path


def _manifest(outdir: Path, command: str, config: dict, derived: dict | None = None) -> None:
    payload = {
        "command": command,
        "config": config,
        "version": __version__,
    }
    if derived:
        payload["derived"] = derived
    _write_json(outdir / "manifest.json", payload)


def _grid_values(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}; expected lo:hi:step") from None
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid spec {spec!r}; need step > 0 and hi >= lo")
    count = int(round((hi - lo) / step))
    return lo + step * np.arange(count + 1)


def _build_rule(name: str, rows: int, cols: int, n: int):
    if name == "equal":
        return EqualRule(n)
    if name == "unit":
        return UnitRule(n)
    if name == "absorbing":
        return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))
    raise ValueError(f"unknown rule {name!r}")


def _build_structure(name: str, rows: int, cols: int) -> StructureFunction:
    if name == "parallel":
        return StructureFunction.parallel(rows * cols)
    if name == "column-paths":
        return StructureFunction.column_paths(rows, cols)
    raise ValueError(f"unknown structure {name!r}")


def _build_model(family: str, shape: float, scale: float) -> StrengthModel:
    if family == "exponential":
        return StrengthModel(family="exponential", shape=1.0, scale=scale)
    return StrengthModel(family=family, shape=shape, scale=scale)


# ---------------------------------------------------------------------------
# option plumbing: argparse collects raw values, config file fills the gaps


_COMMON = {
    "rows": (int, 4),
    "cols": (int, 4),
    "rule": (str, "absorbing"),
    "structure": (str, "column-paths"),
    "family": (str, "weibull"),
    "shape": (float, 5.0),
    "scale": (float, 2.0),
    "replicas": (int, 100_000),
    "seed": (int, 0),
    "chain": (int, 1),
    "tail_lo": (float, 1e-5),
    "tail_hi": (float, 1e-3),
    "percentiles": (str, ""),
    "a": (float, 0.9),
    "s_star": (float, 1.0),
    "workers": (int, 0),  # 0 -> available parallelism
    "out": (str, "out"),
    "samples": (str, ""),
    "input": (str, ""),
    "kind": (str, ""),
    "m": (int, 2),
    "k": (int, 2),
    "l": (int, 4),
    "n": (int, 6),
    "grid": (str, ""),
    "x_grid": (str, ""),
    "y_grid": (str, ""),
    "x": (float, 0.5),
    "y": (float, 1.0),
    "pattern": (str, ""),
    "s": (list, []),
}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _COMMON:
            raise InputFormatError(f"{path}:{ln}: unknown option {key!r}")
        typ, _ = _COMMON[key]
        try:
            values[key] = raw.strip().split() if typ is list else typ(raw.strip())
        except ValueError:
            raise InputFormatError(f"{path}:{ln}: bad value for {key!r}: {raw.strip()!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    from_file = _load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (_, default) in _COMMON.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None and flag_val != []:
            resolved[key] = flag_val
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberbundle",
        description="Fiber-bundle strength simulation and censored-strength analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("simulate", "sample bundle strengths; emit samples, Weibull plot, tail fit"),
        ("gibbs", "enumerate the exact state measure; emit potentials and LMF fits"),
        ("analyze", "Kaplan-Meier curve and censored Weibull MLE for a sample file"),
        ("cycles", "cycles-to-failure under geometric strength degradation"),
        ("density", "tabulate one of the threshold densities"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, help="key=value config file; flags win")
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)
        p.add_argument("--rule", choices=["absorbing", "equal", "unit"])
        p.add_argument("--structure", choices=["parallel", "column-paths"])
        p.add_argument("--family", choices=["weibull", "exponential"])
        p.add_argument("--shape", type=float)
        p.add_argument("--scale", type=float)
        p.add_argument("--replicas", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--chain", type=int)
        p.add_argument("--tail-lo", dest="tail_lo", type=float)
        p.add_argument("--tail-hi", dest="tail_hi", type=float)
        p.add_argument("--percentiles", help="comma list; first is the reference")
        p.add_argument("--a", type=float, help="degradation factor in (0,1)")
        p.add_argument("--s-star", dest="s_star", type=float, help="peak load per component")
        p.add_argument("--workers", type=int)
        p.add_argument("--out")
        p.add_argument("--samples", help="strength samples file (gibbs percentile source)")
        p.add_argument("--input", help="censored sample CSV (analyze)")
        p.add_argument("--kind", choices=["irwin-hall", "mixing", "order-stat-joint",
                                          "tilted", "pattern"])
        p.add_argument("--m", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--grid", help="lo:hi:step evaluation grid")
        p.add_argument("--x-grid", dest="x_grid", help="lo:hi:step grid for x")
        p.add_argument("--y-grid", dest="y_grid", help="lo:hi:step grid for y")
        p.add_argument("--x", type=float)
        p.add_argument("--y", type=float)
        p.add_argument("--pattern", help="breaking pattern, e.g. '1(2,3) 4'")
        p.add_argument("--s", action="append", help="stress vector, comma list (repeatable)")
    return parser


# ---------------------------------------------------------------------------
# commands


def _positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] <= 0:
            raise ValueError(f"{key} must be positive, got {cfg[key]}")


def _workers(cfg: dict) -> int:
    if cfg["workers"] > 0:
        return cfg["workers"]
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, which a container or taskset can restrict
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(cfg: dict) -> None:
    _positive(cfg, "rows", "cols", "replicas", "shape", "scale", "chain")
    outdir = _ensure_outdir(cfg["out"])
    n = cfg["rows"] * cfg["cols"]
    rule = _build_rule(cfg["rule"], cfg["rows"], cfg["cols"], n)
    structure = _build_structure(cfg["structure"], cfg["rows"], cfg["cols"])
    model = _build_model(cfg["family"], cfg["shape"], cfg["scale"])
    samples = sample_bundle_strengths(
        model, rule, structure, cfg["replicas"], seed=cfg["seed"], workers=_workers(cfg)
    )
    _write_csv(outdir / "samples.csv", ["strength"], samples)
    lx, ly = stats.weibull_plot_from_samples(samples)
    _write_csv(outdir / "weibull_plot.csv", ["ln_x", "ln_neg_ln_sf"], lx, ly)
    fit = stats.lower_tail_slope(samples, window=(cfg["tail_lo"], cfg["tail_hi"]))
    rho = model.rho
    _write_json(outdir / "tail_fit.json", {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.stderr,
        "n_points": fit.n_points,
        "window": list(fit.window),
        "component_shape": rho,
        "inflation_factor": stats.inflation_factor(fit.slope, rho),
    })
    derived = {"n_samples": int(samples.size)}
    if cfg["chain"] > 1:
        chain = chain_strength(samples, ChainSpec(cfg["chain"]), seed=cfg["seed"])
        _write_csv(outdir / "chain.csv", ["strength"], chain)
        derived["n_chain"] = int(chain.size)
    _manifest(outdir, "simulate", cfg, derived)


def _percentile_list(cfg: dict) -> list[float]:
    text = cfg["percentiles"].strip()
    if not text:
        raise ValueError("gibbs needs a nonempty --percentiles list (first is the reference)")
    ps = [float(v) for v in text.split(",") if v.strip()]
    if not ps:
        raise ValueError("empty percentile list")
    if any(not 0 < p < 100 for p in ps):
        raise ValueError("percentiles must lie in (0, 100)")
    return ps


def cmd_gibbs(cfg: dict) -> None:
    _positive(cfg, "rows", "cols", "shape", "scale")
    n = cfg["rows"] * cfg["cols"]
    if n > gibbs.MAX_ENUM_N:
        raise ValueError(f"rows*cols = {n} exceeds the enumeration bound {gibbs.MAX_ENUM_N}")
    ps = _percentile_list(cfg)
    outdir = _ensure_outdir(cfg["out"])
    rule = _build_rule(cfg["rule"], cfg["rows"], cfg["cols"], n)
    structure = _build_structure(cfg["structure"], cfg["rows"], cfg["cols"])
    model = _build_model(cfg["family"], cfg["shape"], cfg["scale"])
    if cfg["samples"]:
        samples = _read_strengths(cfg["samples"])
    else:
        _positive(cfg, "replicas")
        samples = sample_bundle_strengths(
            model, rule, structure, cfg["replicas"], seed=cfg["seed"], workers=_workers(cfg)
        )
    levels = {p: gibbs.strength_percentile(samples, p) for p in ps}
    models = {p: gibbs.build_gibbs(n, levels[p], rule, model) for p in ps}
    ref = models[ps[0]]
    _write_csv(
        outdir / "potentials.csv",
        ["subset_mask", "subset_size", "V", "U"],
        np.arange(1 << n), ref.potentials.sizes, ref.potentials.values, ref.energy.values,
    )
    records = []
    for p in ps[1:]:
        fit = gibbs.lmf_fit(ref, models[p], p_ref=ps[0], p_target=p)
        records.append({
            "p": ps[0],
            "p_prime": p,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r2": fit.r2,
            "tv_error": fit.tv_error,
        })
    _write_json(outdir / "lmf.json", records)
    _manifest(outdir, "gibbs", cfg, {"strength_levels": {str(p): levels[p] for p in ps}})


def _read_strengths(path: str) -> np.ndarray:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read samples file {path!r}: {exc}") from exc
    vals = []
    bad = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (ln == 1 and line.lower().startswith("strength")):
            continue
        try:
            vals.append(float(line))
        except ValueError:
            bad.append(ln)
    if bad:
        raise InputFormatError(f"{path}: malformed rows at lines {bad}")
    if not vals:
        raise InputFormatError(f"{path}: no strength values found")
    return np.asarray(vals)


def _read_censored(path: str) -> list[tuple[float, bool]]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read input file {path!r}: {exc}") from exc
    rows = []
    bad = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (ln == 1 and line.lower().replace(" ", "") in ("value,censored",)):
            continue
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError
            value = float(parts[0])
            flag = int(parts[1])
            if flag not in (0, 1) or value <= 0:
                raise ValueError
            rows.append((value, bool(flag)))
        except ValueError:
            bad.append(ln)
    if bad:
        raise InputFormatError(f"{path}: malformed rows at lines {bad}")
    if not rows:
        raise InputFormatError(f"{path}: no observations found")
    return rows


def cmd_analyze(cfg: dict) -> None:
    if not cfg["input"]:
        raise ValueError("analyze needs --input pointing at a value,censored CSV")
    outdir = _ensure_outdir(cfg["out"])
    data = _read_censored(cfg["input"])
    km = stats.kaplan_meier(data)
    _write_csv(outdir / "km.csv", ["time", "surv", "lo", "hi"],
               km.times, km.survival, km.lower, km.upper)
    derived: dict = {"n_obs": len(data), "n_censored": sum(1 for _, c in data if c)}
    if sum(1 for _, c in data if not c) >= 2:
        fit = stats.weibull_mle_censored(data)
        _write_json(outdir / "weibull_fit.json", {
            "rho": fit.rho, "sigma": fit.sigma,
            "loglik": fit.loglik, "converged": fit.converged,
        })
    else:
        derived["weibull_fit"] = "skipped: fewer than 2 uncensored observations"
    _manifest(outdir, "analyze", cfg, derived)


def cmd_cycles(cfg: dict) -> None:
    _positive(cfg, "rows", "cols", "replicas", "shape", "scale", "s_star")
    outdir = _ensure_outdir(cfg["out"])
    n = cfg["rows"] * cfg["cols"]
    rule = _build_rule(cfg["rule"], cfg["rows"], cfg["cols"], n)
    structure = _build_structure(cfg["structure"], cfg["rows"], cfg["cols"])
    model = _build_model(cfg["family"], cfg["shape"], cfg["scale"])
    counts = cycles_to_failure_samples(
        model, rule, structure, cfg["s_star"], cfg["a"], cfg["replicas"],
        seed=cfg["seed"], workers=_workers(cfg),
    )
    _write_csv(outdir / "cycles.csv", ["cycles"], counts)
    qs = {f"q{q}": float(np.quantile(counts, q / 100)) for q in (5, 25, 50, 75, 95)}
    _write_json(outdir / "cycles_summary.json", {
        "mean": float(counts.mean()),
        "max": int(counts.max()),
        **qs,
    })
    _manifest(outdir, "cycles", cfg)


def cmd_density(cfg: dict) -> None:
    kind = cfg["kind"]
    if not kind:
        raise ValueError("density needs --kind")
    outdir = _ensure_outdir(cfg["out"])
    derived: dict = {}
    if kind == "irwin-hall":
        _positive(cfg, "m")
        grid = _grid_values(cfg["grid"] or f"0:{cfg['m']}:0.1")
        columns = (grid, threshold.irwin_hall_pdf(cfg["m"], grid))
        header = ["t", "pdf"]
    elif kind == "mixing":
        mix = threshold.order_stat_mixing(cfg["k"], cfg["n"])
        if mix.is_atom:
            raise ValueError(f"a_({cfg['k']};{cfg['n']}) is a point mass at {cfg['n']}")
        lo, hi = mix.support
        grid = _grid_values(cfg["grid"] or f"{lo}:{hi}:{(hi - lo) / 50}")
        columns = (grid, mix.pdf(grid))
        header = ["theta", "pdf"]
        derived["normalizing_constant"] = 1.0 / mix.normalizer
    elif kind == "order-stat-joint":
        joint = threshold.OrderStatJointDensity(cfg["k"], cfg["l"], cfg["n"])
        xg = _grid_values(cfg["x_grid"] or "0.2:1.0:0.2")
        yg = _grid_values(cfg["y_grid"] or "0.2:1.0:0.2")
        x = np.repeat(xg, yg.size)
        y = x + np.tile(yg, xg.size)
        direct = np.array([joint.direct(xv, yv) for xv, yv in zip(x, y)])
        mixture = np.array([joint.mixture(xv, yv) for xv, yv in zip(x, y)])
        rel = np.divide(np.abs(direct - mixture), direct, out=np.zeros_like(direct),
                        where=direct != 0)
        columns = (x, y, direct, mixture, rel)
        header = ["x", "y", "direct", "mixture", "rel_err"]
    elif kind == "tilted":
        tc = threshold.TiltedConditional(cfg["k"], cfg["l"], cfg["n"], cfg["x"], cfg["y"])
        lo1, hi1 = cfg["n"] - cfg["k"] + 1, cfg["n"]
        lo2, hi2 = cfg["n"] - cfg["l"] + 1, cfg["n"] - cfg["k"]
        g1 = _grid_values(f"{lo1}:{hi1}:{(hi1 - lo1) / 20}")
        g2 = _grid_values(f"{lo2}:{hi2}:{(hi2 - lo2) / 20}")
        f1 = np.repeat(tc.factor1(g1), g2.size)
        f2 = np.tile(tc.factor2(g2), g1.size)
        columns = (np.repeat(g1, g2.size), np.tile(g2, g1.size), f1 * f2, f1, f2)
        header = ["theta1", "theta2", "pdf", "factor1", "factor2"]
    elif kind == "pattern":
        if not cfg["pattern"]:
            raise ValueError("pattern density needs --pattern")
        if not cfg["s"]:
            raise ValueError("pattern density needs at least one --s stress vector")
        pattern = parse_pattern(cfg["pattern"])
        n = cfg["rows"] * cfg["cols"]
        rule = _build_rule(cfg["rule"], cfg["rows"], cfg["cols"], n)
        model = _build_model(cfg["family"], cfg["shape"], cfg["scale"])
        f = len(pattern.cycles)
        stresses, density = [], []
        for spec in cfg["s"]:
            s = [float(v) for v in str(spec).split(",")]
            if len(s) != f:
                raise ValueError(f"stress vector {spec!r} must have {f} entries")
            inp = threshold.pattern_density_input(pattern, rule, n, model, s)
            stresses.append(s)
            density.append(threshold.phase1_pattern_density(inp))
        columns = (*np.array(stresses).T, density)
        header = [f"s{u + 1}" for u in range(f)] + ["density"]
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    _write_csv(outdir / "density.csv", header, *columns)
    _manifest(outdir, "density", cfg, derived)


_COMMANDS = {
    "simulate": cmd_simulate,
    "gibbs": cmd_gibbs,
    "analyze": cmd_analyze,
    "cycles": cmd_cycles,
    "density": cmd_density,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        _COMMANDS[args.command](cfg)
    except gibbs.PositivityError as exc:
        # a ValueError subclass, but a numerical failure rather than a usage error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
