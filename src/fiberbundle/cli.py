"""Command-line front end: seeded simulation runs and plot-ready CSV/JSON.

Commands: simulate, gibbs, analyze, cycles, density.  Each command takes only
its own options (its row of _COMMANDS), and each density kind only those it
reads (_KIND_READS), as flags or as keys of a key=value config file
(--config); explicit flags win.  Every output directory receives a
manifest.json echoing the command's resolved options.

Exit codes: 0 success, 2 usage/configuration, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .distributions import FAMILIES, StrengthModel, _linear_quantiles

if TYPE_CHECKING:
    from .cascade import StructureFunction

# Each command imports the numerical modules it runs when it runs, and the CSV
# writer at its first write, so a run compiles and loads only those (see
# "Start-up" in README).


class InputFormatError(OSError):
    """Malformed input file content."""


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON; a NaN or infinite float writes no file."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n")


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
    payload = {"command": command, "config": config, "version": __version__}
    if derived:
        payload["derived"] = derived
    _write_json(outdir / "manifest.json", payload)


_MAX_TABLE_ROWS = 1 << 20


def _table_rows(flag: str, *sizes) -> None:
    """Reject a density table of more than _MAX_TABLE_ROWS rows before it is built."""
    rows = math.prod(sizes)
    if rows > _MAX_TABLE_ROWS:
        raise ValueError(f"{flag}: the table would have {rows} rows; at most {_MAX_TABLE_ROWS}")


def _grid_values(spec: str, flag: str = "--grid") -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"{flag}: bad grid spec {spec!r}; expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"{flag}: bad grid spec {spec!r}; lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"{flag}: bad grid spec {spec!r}; need step > 0 and hi >= lo")
    span = (hi - lo) / step  # may overflow
    # the points up to hi, with 1e-9 of slack: more than the span's rounding at the row bound
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    _table_rows(flag, count)
    return lo + step * np.arange(count)


_RULES = {
    "absorbing": lambda ls, rows, cols: ls.AbsorbingRule(
        ls.transition_matrix(ls.build_grid_graph(rows, cols))),
    "equal": lambda ls, rows, cols: ls.EqualRule(rows * cols),
    "unit": lambda ls, rows, cols: ls.UnitRule(rows * cols),
}
_STRUCTURES = {
    "parallel": lambda sf, rows, cols: sf.parallel(rows * cols),
    "column-paths": lambda sf, rows, cols: sf.column_paths(rows, cols),
}


def _bundle(cfg: dict) -> tuple[int, object, StrengthModel]:
    """Component count, load-sharing rule and strength model of the grid bundle."""
    from . import loadshare

    rows, cols = cfg["rows"], cfg["cols"]
    model = StrengthModel(family=cfg["family"], shape=cfg["shape"], scale=cfg["scale"])
    return rows * cols, _RULES[cfg["rule"]](loadshare, rows, cols), model


def _structure(cfg: dict) -> StructureFunction:
    from .cascade import StructureFunction

    return _STRUCTURES[cfg["structure"]](StructureFunction, cfg["rows"], cfg["cols"])


# The sampler's entry points, looked up on this module when a command runs, so
# a caller may wrap them here.
def sample_bundle_strengths(*args, **kwargs) -> np.ndarray:
    from .cascade import sample_bundle_strengths

    return sample_bundle_strengths(*args, **kwargs)


def cycles_to_failure_samples(*args, **kwargs) -> np.ndarray:
    from .cascade import cycles_to_failure_samples

    return cycles_to_failure_samples(*args, **kwargs)


# ---------------------------------------------------------------------------
# options: _OPTIONS declares each option once, _COMMANDS names each command's row


def _positive(value) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"must be positive and finite, got {value}")


def _non_negative(value) -> None:
    if value < 0:
        raise ValueError(f"must be 0 (all available CPUs) or positive, got {value}")


def _degradation(value) -> None:
    from .cascade import _check_degradation

    _check_degradation(value)


_BUNDLE = ("rows", "cols", "rule", "family", "shape", "scale")
_SAMPLING = ("structure", "replicas", "seed", "workers")
# the options each density kind reads, besides --kind and --out
_KIND_READS = {
    "irwin-hall": ("m", "grid"),
    "mixing": ("k", "n", "grid"),
    "order-stat-joint": ("k", "l", "n", "x_grid", "y_grid"),
    "tilted": ("k", "l", "n", "x", "y"),
    "pattern": ("pattern", "s", *_BUNDLE),
}


class _Option(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None
    check: Callable | None = None  # raises ValueError on a bad value


_OPTIONS = {
    "rows": _Option(int, 4, "grid rows", check=_positive),
    "cols": _Option(int, 4, "grid columns", check=_positive),
    "rule": _Option(str, "absorbing", "load-sharing rule", tuple(_RULES)),
    "structure": _Option(str, "column-paths", "structure function", tuple(_STRUCTURES)),
    "family": _Option(str, "weibull", "component strength law", FAMILIES),
    "shape": _Option(float, 5.0, "Weibull shape; exponential fixes it at 1", check=_positive),
    "scale": _Option(float, 2.0, "strength scale", check=_positive),
    "replicas": _Option(int, 100_000, "bundles to sample", check=_positive),
    "seed": _Option(int, 0, "random seed"),
    "chain": _Option(int, 1, "bundles in series for chain.csv; 1 writes none", check=_positive),
    "tail_lo": _Option(float, 1e-5, "lower probability of the tail-fit window"),
    "tail_hi": _Option(float, 1e-3, "upper probability of the tail-fit window"),
    "percentiles": _Option(str, "", "comma list of strength percentiles; first is the reference"),
    "a": _Option(float, 0.9, "degradation factor per cycle, in (0, 1)", check=_degradation),
    "s_star": _Option(float, 1.0, "peak load per component", check=_positive),
    "workers": _Option(int, 0, "worker processes; 0 uses the available CPUs",
                       check=_non_negative),
    "out": _Option(str, "out", "output directory"),
    "samples": _Option(str, "", "strength samples file to take the percentiles from"),
    "input": _Option(str, "", "value,censored CSV to analyze"),
    "kind": _Option(str, "", "density to tabulate", tuple(_KIND_READS)),
    "m": _Option(int, 2, "irwin-hall: number of uniforms", check=_positive),
    "k": _Option(int, 2, "order-statistic index k"),
    "l": _Option(int, 4, "order-statistic index l"),
    "n": _Option(int, 6, "sample size n"),
    "grid": _Option(str, "", "lo:hi:step evaluation grid (irwin-hall, mixing)"),
    "x_grid": _Option(str, "", "lo:hi:step grid for x (order-stat-joint)"),
    "y_grid": _Option(str, "", "lo:hi:step grid for y - x (order-stat-joint)"),
    "x": _Option(float, 0.5, "tilted: conditioning value x"),
    "y": _Option(float, 1.0, "tilted: conditioning value y"),
    "pattern": _Option(str, "", "breaking pattern, e.g. '1(2,3) 4'"),
    "s": _Option(list, (), "stress vector, comma list (repeatable)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str, command: str, keys) -> dict:
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
        if key not in keys:
            raise InputFormatError(f"{path}:{ln}: {command} has no option {key!r}")
        typ = _OPTIONS[key].type
        try:
            values[key] = raw.strip().split() if typ is list else typ(raw.strip())
        except ValueError:
            raise InputFormatError(f"{path}:{ln}: bad value for {key!r}: {raw.strip()!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options, each from its flag, else the config file, else its default.

    A density kind takes only the options it reads.
    """
    keys = _COMMANDS[args.command][1]
    from_file = _load_config_file(args.config, args.command, keys) if args.config else {}
    cfg, given = {}, []
    for key in keys:
        opt = _OPTIONS[key]
        value = getattr(args, key)
        if value is not None or key in from_file:
            given.append(key)
        if value is None:
            value = from_file.get(key, opt.default)
        try:
            if opt.choices and value not in opt.choices:
                raise ValueError(f"must be one of {', '.join(opt.choices)}; got {value!r}")
            if opt.check:
                opt.check(value)
        except ValueError as exc:
            raise ValueError(f"{_flag(key)}: {exc}") from None
        cfg[key] = value
    if args.command == "density":
        reads = ("kind", "out", *_KIND_READS[cfg["kind"]])
        unread = [_flag(k) for k in given if k not in reads]
        if unread:
            raise ValueError(f"--kind {cfg['kind']} does not read {', '.join(unread)}")
        cfg = {k: v for k, v in cfg.items() if k in reads}
    if cfg.get("family") == "exponential":
        if "shape" in given:
            raise ValueError("--shape: --family exponential fixes the shape at 1; "
                             "drop --shape or use --family weibull")
        cfg["shape"] = 1.0  # the shape the law uses, so the manifest echoes it
    return cfg


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every command has its subparser, but with
    ``command`` only that one gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="fiberbundle",
        description="Fiber-bundle strength simulation and censored-strength analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cmd, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__, description=cmd.__doc__)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="key=value file of this command's options; flags win")
        for key in keys:
            opt = _OPTIONS[key]
            shown = f" (default {opt.default})" if opt.default not in ("", ()) else ""
            if opt.type is list:
                how = {"action": "append"}
            else:
                how = {"type": opt.type, "choices": opt.choices}
            p.add_argument(_flag(key), help=opt.help + shown, **how)
    return parser


# ---------------------------------------------------------------------------
# commands


def _workers(cfg: dict) -> int:
    if cfg["workers"] > 0:
        return cfg["workers"]
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, which a container or taskset can restrict
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(cfg: dict) -> None:
    """Sample bundle strengths; emit samples, Weibull plot and lower-tail fit."""
    from . import stats
    from .cascade import chain_strength

    _, rule, model = _bundle(cfg)
    structure = _structure(cfg)
    window = (cfg["tail_lo"], cfg["tail_hi"])
    stats.tail_window(cfg["replicas"], window)  # too few points fails before sampling
    outdir = _ensure_outdir(cfg["out"])
    samples = sample_bundle_strengths(
        model, rule, structure, cfg["replicas"], seed=cfg["seed"], workers=_workers(cfg)
    )
    from .csvtext import write_csv
    write_csv(outdir / "samples.csv", ["strength"], [(samples,)])
    samples.sort()  # once, in place, for the plot and the tail fit to read
    write_csv(outdir / "weibull_plot.csv", ["ln_x", "ln_neg_ln_sf"],
              stats.weibull_plot_blocks(samples))
    fit = stats.lower_tail_slope(samples, window=window)
    _write_json(outdir / "tail_fit.json", {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.stderr,
        "n_points": fit.n_points,
        "window": list(fit.window),
        "component_shape": model.shape,
        "inflation_factor": stats.inflation_factor(fit.slope, model.shape),
    })
    derived = {"n_samples": int(samples.size)}
    if cfg["chain"] > 1:
        chain = chain_strength(samples, cfg["chain"])  # reads the sorted sample in place
        write_csv(outdir / "chain.csv", ["strength"], [(chain,)])
        derived["n_chain"] = int(chain.size)
    _manifest(outdir, "simulate", cfg, derived)


def _percentile_list(cfg: dict, n: int) -> list[float]:
    try:
        ps = [float(v) for v in cfg["percentiles"].split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--percentiles: {exc}") from None
    if not ps:
        raise ValueError("gibbs needs a nonempty --percentiles list (first is the reference)")
    if any(not 0 < p < 100 for p in ps):
        raise ValueError("--percentiles: percentiles must lie in (0, 100)")
    if n == 1 and len(ps) > 1:  # one potential: lmf_fit would reject every fit
        raise ValueError(f"an LMF fit needs n >= 2 components, got n = {n}; give one --percentiles")
    return ps


def cmd_gibbs(cfg: dict) -> None:
    """Enumerate the exact state measure; emit potentials and LMF fits."""
    from . import gibbs
    from .loadshare import share_table

    n, rule, model = _bundle(cfg)
    ps = _percentile_list(cfg, n)
    share_table(rule, n)  # bounds n; the sampler and build_gibbs reuse this table
    samples = _read_strengths(cfg["samples"]) if cfg["samples"] else None
    outdir = _ensure_outdir(cfg["out"])
    if samples is None:
        samples = sample_bundle_strengths(
            model, rule, _structure(cfg), cfg["replicas"], seed=cfg["seed"],
            workers=_workers(cfg),
        )
    # partitions the strengths in place: nothing else reads them
    levels = dict(zip(ps, _linear_quantiles(samples, np.array(ps) / 100, overwrite=True).tolist()))
    for p, level in levels.items():
        if not level > 0:  # build_gibbs would reject the load as a usage error
            raise ArithmeticError(
                f"the {p} percentile strength level is {level}: the strength underflowed, "
                "and the state measure needs a positive load")
    models = {p: gibbs.build_gibbs(n, levels[p], rule, model) for p in ps}
    ref = models[ps[0]]
    from .csvtext import write_csv
    columns = (np.arange(1 << n), ref.potentials.sizes, ref.potentials.values, ref.energy.values)
    write_csv(outdir / "potentials.csv", ["subset_mask", "subset_size", "V", "U"], [columns])
    records = []
    for p in ps[1:]:
        fit = gibbs.lmf_fit(ref, models[p])
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


def _positive_value(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"not a finite positive value: {text!r}")
    return value


def _read_rows(path: str, what: str, header: str, parse: Callable[[str], object]) -> list:
    """One parsed value per nonblank line, skipping a first line that starts
    with ``header``; a line ``parse`` rejects is a malformed row."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read {what} file {path!r}: {exc}") from exc
    rows, bad = [], []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (ln == 1 and line.lower().replace(" ", "").startswith(header)):
            continue
        try:
            rows.append(parse(line))
        except ValueError:
            bad.append(ln)
    if bad:
        raise InputFormatError(f"{path}: malformed rows at lines {bad}")
    if not rows:
        raise InputFormatError(f"{path}: no {what} rows found")
    return rows


def _read_strengths(path: str) -> np.ndarray:
    return np.asarray(_read_rows(path, "samples", "strength", _positive_value))


def _censored_row(line: str) -> tuple[float, bool]:
    value, flag = line.split(",")  # any other field count is a ValueError
    flag = int(flag)
    if flag not in (0, 1):
        raise ValueError(f"censoring flag must be 0 or 1, got {flag}")
    return _positive_value(value), bool(flag)


def _read_censored(path: str) -> list[tuple[float, bool]]:
    return _read_rows(path, "input", "value,censored", _censored_row)


def cmd_analyze(cfg: dict) -> None:
    """Kaplan-Meier curve and censored Weibull MLE for a value,censored CSV."""
    from . import stats

    if not cfg["input"]:
        raise ValueError("analyze needs --input pointing at a value,censored CSV")
    data = _read_censored(cfg["input"])
    outdir = _ensure_outdir(cfg["out"])
    km = stats.kaplan_meier(data)
    from .csvtext import write_csv
    write_csv(outdir / "km.csv", ["time", "surv", "lo", "hi"],
              [(km.times, km.survival, km.lower, km.upper)])
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
    """Cycles to failure under geometric strength degradation."""
    _, rule, model = _bundle(cfg)
    structure = _structure(cfg)
    outdir = _ensure_outdir(cfg["out"])
    counts = cycles_to_failure_samples(
        model, rule, structure, cfg["s_star"], cfg["a"], cfg["replicas"],
        seed=cfg["seed"], workers=_workers(cfg),
    )
    from .csvtext import write_csv
    write_csv(outdir / "cycles.csv", ["cycles"], [(counts,)])
    summary = {"mean": float(counts.mean()), "max": int(counts.max())}
    levels = (5, 25, 50, 75, 95)
    # partitions the counts in place; the mean above was summed in sample order
    qs = _linear_quantiles(counts, np.array(levels) / 100, overwrite=True).tolist()
    summary.update((f"q{q}", v) for q, v in zip(levels, qs))
    _write_json(outdir / "cycles_summary.json", summary)
    _manifest(outdir, "cycles", cfg)


def cmd_density(cfg: dict) -> None:
    """Tabulate one of the threshold densities."""
    from . import threshold

    kind = cfg["kind"]
    derived: dict = {}
    if kind == "irwin-hall":
        grid = _grid_values(cfg["grid"] or f"0:{cfg['m']}:0.1")
        try:
            columns = (grid, threshold.irwin_hall_pdf(cfg["m"], grid))
        except ValueError as exc:
            raise ValueError(f"--m: {exc}") from None
        header = ["t", "pdf"]
    elif kind == "mixing":
        mix = threshold.order_stat_mixing(cfg["k"], cfg["n"])
        if mix.is_atom:
            raise ValueError(f"a_({cfg['k']};{cfg['n']}) is a point mass at {cfg['n']}")
        lo, hi = mix.support
        grid = _grid_values(cfg["grid"] or f"{lo}:{hi}:{(hi - lo) / 50}")
        columns = (grid, mix.pdf(grid))
        header = ["theta", "pdf"]
        derived["log_normalizing_constant"] = -mix.log_normalizer
    elif kind == "order-stat-joint":
        joint = threshold.OrderStatJointDensity(cfg["k"], cfg["l"], cfg["n"])
        xg = _grid_values(cfg["x_grid"] or "0.2:1.0:0.2", "--x-grid")
        yg = _grid_values(cfg["y_grid"] or "0.2:1.0:0.2", "--y-grid")
        _table_rows("--x-grid x --y-grid", xg.size, yg.size)
        x = np.repeat(xg, yg.size)
        with np.errstate(over="ignore"):  # an overflowing y is rejected below
            y = x + np.tile(yg, xg.size)
        if not np.isfinite(y).all():
            raise ValueError("--x-grid, --y-grid: y = x + (y - x) overflows a float64")
        direct = joint.direct(x, y)
        mixture = joint.mixture(x, y)
        rel = np.divide(np.abs(direct - mixture), direct, out=np.zeros_like(direct),
                        where=direct != 0)
        columns = (x, y, direct, mixture, rel)
        header = ["x", "y", "direct", "mixture", "rel_err"]
    elif kind == "tilted":
        tc = threshold.TiltedConditional(cfg["k"], cfg["l"], cfg["n"], cfg["x"], cfg["y"])
        # each law's support, cut to mean + 3 sd of the gamma(m, tilt) bulk of a steep tilt,
        # (m + 3 sqrt(m)) / tilt, so 21 points span its own spread; but >= 20 ulps wide
        bounds = [(law.shift, law.shift + min(law.m, max((law.m + 3 * math.sqrt(law.m)) / law.tilt,
                                                          20 * math.ulp(law.shift))))
                  for law in (tc.law1, tc.law2)]
        g1, g2 = (_grid_values(f"{lo}:{hi}:{(hi - lo) / 20}", "--kind tilted") for lo, hi in bounds)
        f1 = np.repeat(tc.law1.pdf(g1), g2.size)
        f2 = np.tile(tc.law2.pdf(g2), g1.size)
        with np.errstate(over="ignore"):  # checked below
            pdf = f1 * f2
        if np.isinf(pdf).any():
            raise ArithmeticError(f"the tilted density at x = {cfg['x']}, y = {cfg['y']} "
                                  f"overflows a float64")
        columns = (np.repeat(g1, g2.size), np.tile(g2, g1.size), pdf, f1, f2)
        header = ["theta1", "theta2", "pdf", "factor1", "factor2"]
    else:  # pattern
        if not cfg["pattern"]:
            raise ValueError("pattern density needs --pattern")
        if not cfg["s"]:
            raise ValueError("pattern density needs at least one --s stress vector")
        from .cascade import parse_pattern

        pattern = parse_pattern(cfg["pattern"])
        n, rule, model = _bundle(cfg)
        f = len(pattern.cycles)
        stresses = []
        for spec in cfg["s"]:
            try:
                s = [float(v) for v in str(spec).split(",")]
            except ValueError as exc:
                raise ValueError(f"--s: stress vector {spec!r}: {exc}") from None
            if len(s) != f:
                raise ValueError(f"--s: stress vector {spec!r} must have {f} entries")
            if not all(map(math.isfinite, s)):
                raise ValueError(f"--s: stress vector {spec!r} has a non-finite entry")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError(f"--s: stress vector {spec!r} must be strictly increasing")
            stresses.append(s)
        inp = threshold.pattern_density_input(pattern, rule, n, model)
        density = [threshold.phase1_pattern_density(inp, s) for s in stresses]
        columns = (*np.array(stresses).T, density)
        header = [f"s{u + 1}" for u in range(f)] + ["density"]
    outdir = _ensure_outdir(cfg["out"])
    from .csvtext import write_csv
    write_csv(outdir / "density.csv", header, [columns])
    _manifest(outdir, "density", cfg, derived)


_COMMANDS = {
    "simulate": (cmd_simulate, (*_BUNDLE, *_SAMPLING, "chain", "tail_lo", "tail_hi", "out")),
    "gibbs": (cmd_gibbs, (*_BUNDLE, *_SAMPLING, "percentiles", "samples", "out")),
    "analyze": (cmd_analyze, ("input", "out")),
    "cycles": (cmd_cycles, (*_BUNDLE, *_SAMPLING, "a", "s_star", "out")),
    "density": (cmd_density, ("kind", *dict.fromkeys(k for ks in _KIND_READS.values() for k in ks),
                              "out")),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    import logging  # here, so that importing the CLI does not load it (see Start-up in README)

    # for this run the library's log records reach stderr, one line each; they
    # still propagate to any handler the caller set up
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("fiberbundle")
    logger.addHandler(handler)
    try:
        cfg = _resolve(args)
        _COMMANDS[args.command][0](cfg)
    except (ArithmeticError, RuntimeError) as exc:
        # first, for errors that are a ValueError too (gibbs.PositivityError)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        logger.removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
