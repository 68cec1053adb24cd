"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

Each check compares a run's files against an oracle that does not share the
code path under test (the scalar cascade for the vectorized sampler, a
closed form for the density tables) and raises ``OutputError`` on the first
problem.  Every check holds for any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# first replicas of chunk 0 replayed through the scalar cascade
_ORACLE_REPLICAS = 300


class OutputError(Exception):
    """A run's output files are missing or disagree with the oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int], list[str]]  # seed -> CLI arguments, without --out
    items: Callable[[int], int]  # seed -> replicas or grid points produced
    check: Callable[[Path, int], None]  # (output dir, seed) -> raises OutputError


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OutputError(msg)


def _files(outdir: Path, *names: str) -> None:
    for name in names:
        _require((outdir / name).is_file(), f"missing output file {name}")


def _count_rows(path: Path, header: str) -> int:
    with open(path, "rb") as fh:
        first = fh.readline().decode().rstrip("\n")
        _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
        count = 0
        while block := fh.read(1 << 22):
            count += block.count(b"\n")
    return count


def _head_column(path: Path, rows: int, parse=float) -> list:
    with open(path) as fh:
        fh.readline()
        return [parse(fh.readline().split(",")[0]) for _ in range(rows)]


def _grid_bundle(rows: int, cols: int):
    from fiberbundle import AbsorbingRule, StructureFunction, build_grid_graph, transition_matrix

    rule = AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))
    return rule, StructureFunction.column_paths(rows, cols)


def _chunk0(model, n: int, seed: int, size: int) -> np.ndarray:
    # the sampler keys chunk c's generator by (seed, c); a prefix of the
    # chunk's draws is the same whatever the chunk size
    return model.sample(np.random.default_rng([seed, 0]), n, size)


def _oracle_strengths(model, rows: int, cols: int, seed: int, count: int) -> np.ndarray:
    from fiberbundle import simulate_cascade

    rule, structure = _grid_bundle(rows, cols)
    x = _chunk0(model, rows * cols, seed, count)
    return np.array([simulate_cascade(xr, rule, structure).strength for xr in x])


def _model(shape: float, scale: float):
    from fiberbundle import StrengthModel

    return StrengthModel("weibull", shape=shape, scale=scale)


def simulate_workload(rows: int = 3, cols: int = 4, replicas: int = 100_000,
                      shape: float = 5.0, scale: float = 2.0) -> Workload:
    def args(seed: int) -> list[str]:
        return ["simulate", "--rows", str(rows), "--cols", str(cols), "--rule", "absorbing",
                "--structure", "column-paths", "--family", "weibull", "--shape", str(shape),
                "--scale", str(scale), "--replicas", str(replicas), "--workers", "1",
                "--seed", str(seed)]

    def check(outdir: Path, seed: int) -> None:
        _files(outdir, "samples.csv", "weibull_plot.csv", "tail_fit.json", "manifest.json")
        got = _count_rows(outdir / "samples.csv", "strength")
        _require(got == replicas, f"samples.csv has {got} rows, expected {replicas}")
        # the largest sample has empirical survival 0 and is dropped from the plot
        got = _count_rows(outdir / "weibull_plot.csv", "ln_x,ln_neg_ln_sf")
        _require(got == replicas - 1, f"weibull_plot.csv has {got} rows, expected {replicas - 1}")
        fit = json.loads((outdir / "tail_fit.json").read_text())
        _require(fit["n_points"] >= 100, f"tail fit used only {fit['n_points']} points")
        k = min(_ORACLE_REPLICAS, replicas)
        want = _oracle_strengths(_model(shape, scale), rows, cols, seed, k)
        got = np.array(_head_column(outdir / "samples.csv", k))
        err = float(np.max(np.abs(got - want) / want))
        _require(err <= 1e-9, f"samples.csv departs from simulate_cascade by {err:.3e}")

    return Workload(
        name=f"simulate-g{rows}{cols}",
        why="The flagship command: writing 100,000 strengths as CSV leads, then the cascade "
            "kernel and the 4,095-solve absorbing share table, then the tail fit.",
        args=args, items=lambda seed: replicas, check=check,
    )


def cycles_workload(rows: int = 3, cols: int = 3, replicas: int = 300_000,
                    a: float = 0.9, s_star: float = 1.0) -> Workload:
    def args(seed: int) -> list[str]:
        return ["cycles", "--rows", str(rows), "--cols", str(cols), "--rule", "absorbing",
                "--a", str(a), "--s-star", str(s_star), "--replicas", str(replicas),
                "--workers", "1", "--seed", str(seed)]

    def check(outdir: Path, seed: int) -> None:
        from fiberbundle import cycles_to_failure

        _files(outdir, "cycles.csv", "cycles_summary.json", "manifest.json")
        got = _count_rows(outdir / "cycles.csv", "cycles")
        _require(got == replicas, f"cycles.csv has {got} rows, expected {replicas}")
        k = min(_ORACLE_REPLICAS, replicas)
        rule, structure = _grid_bundle(rows, cols)
        x = _chunk0(_model(5.0, 2.0), rows * cols, seed, k)  # the CLI's default model
        want = [cycles_to_failure(xr, rule, structure, s_star, a) for xr in x]
        got = _head_column(outdir / "cycles.csv", k, int)
        bad = [i for i in range(k) if got[i] != want[i]]
        _require(not bad, f"cycles.csv row {bad[:1]} departs from cycles_to_failure")

    return Workload(
        name=f"cycles-g{rows}{cols}",
        why="Bypasses the table cost (511 solves, about 0.04 s); the kernel reads a 37 KB "
            "table that fits in cache, so the kernel and per-row output writing dominate.",
        args=args, items=lambda seed: replicas, check=check,
    )


def _zeta(values: np.ndarray, n: int) -> np.ndarray:
    """Sum over subsets: out[B] = sum of values[A] for A inside B."""
    out = values.copy()
    for b in range(n):
        view = out.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    return out


def gibbs_workload(rows: int = 3, cols: int = 4, replicas: int = 200_000,
                   percentiles: str = "0.001,1,10,50") -> Workload:
    n = rows * cols
    ps = [float(p) for p in percentiles.split(",")]

    def args(seed: int) -> list[str]:
        return ["gibbs", "--rows", str(rows), "--cols", str(cols), "--rule", "absorbing",
                "--percentiles", percentiles, "--replicas", str(replicas), "--workers", "1",
                "--seed", str(seed)]

    def check(outdir: Path, seed: int) -> None:
        from fiberbundle import Configuration
        from fiberbundle import gibbs as gb

        _files(outdir, "potentials.csv", "lmf.json", "manifest.json")
        got = _count_rows(outdir / "potentials.csv", "subset_mask,subset_size,V,U")
        _require(got == 1 << n, f"potentials.csv has {got} rows, expected {1 << n}")
        table = np.loadtxt(outdir / "potentials.csv", delimiter=",", skiprows=1)
        masks = np.arange(1 << n)
        _require(np.array_equal(table[:, 0], masks), "subset_mask column is not 0..2^n-1")
        sizes = np.bitwise_count(masks)
        _require(np.array_equal(table[:, 1], sizes), "subset_size column is not popcount")
        v, u = table[:, 2], table[:, 3]
        back = gb.potentials_from_energy(gb.SubsetTable(n, u)).values
        err = float(np.max(np.abs(back - v))) / max(1.0, float(np.max(np.abs(v))))
        _require(err <= 1e-9, f"Moebius round trip misses V by {err:.3e}")
        _require(len(json.loads((outdir / "lmf.json").read_text())) == len(ps) - 1,
                 "lmf.json needs one record per non-reference percentile")

        levels = json.loads((outdir / "manifest.json").read_text())["derived"]["strength_levels"]
        level = [levels[str(p)] for p in ps]
        _require(all(lo < hi for lo, hi in zip(level, level[1:])), "levels do not rise with p")
        # no strengths are written, so chunk 0 replayed through the scalar
        # cascade checks the levels: by the DKW inequality each empirical
        # share below level p lies within 0.2 of p/100 except with
        # probability 2e-11
        strengths = _oracle_strengths(_model(5.0, 2.0), rows, cols, seed,
                                      min(_ORACLE_REPLICAS, replicas))
        for p, lv in zip(ps, level):
            share = float(np.mean(strengths <= lv))
            _require(abs(share - p / 100) <= 0.2, f"level at p={p} sits at share {share}")

        # sigma(A) = sum over K inside A of |K| V(K) must equal the summed log odds
        sigma = _zeta(sizes * v, n)
        rule, _ = _grid_bundle(rows, cols)
        model = _model(5.0, 2.0)
        rng = np.random.default_rng([seed, 1])
        for mask in rng.integers(1, 1 << n, size=6):
            conf = Configuration.from_mask(n, int(mask))
            want = sum(gb.log_odds(conf, i, level[0], rule, model) for i in conf.working)
            err = abs(sigma[mask] - want) / max(1.0, abs(want))
            _require(err <= 1e-8, f"subset sum at mask {mask} misses log odds by {err:.3e}")

    return Workload(
        name=f"gibbs-g{rows}{cols}",
        why="The only workload that runs gibbs: builds a 4,095-row share table, samples the "
            "strength levels, then sweeps every row four times in build_gibbs.",
        args=args, items=lambda seed: replicas, check=check,
    )


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + step * i for i in range(int(round((hi - lo) / step)) + 1)]


def _order_stat_joint(k: int, l: int, n: int, x: float, y: float) -> float:
    """Joint density of the k-th and l-th order statistics of n unit exponentials,
    from the textbook formula n!/((k-1)!(l-k-1)!(n-l)!) F^(k-1) f (F_y-F_x)^(l-k-1) f_y S_y^(n-l)."""
    fx, fy = 1 - math.exp(-x), 1 - math.exp(-y)
    c = math.factorial(n) / (math.factorial(k - 1) * math.factorial(l - k - 1)
                             * math.factorial(n - l))
    return c * fx ** (k - 1) * math.exp(-x) * (fy - fx) ** (l - k - 1) * math.exp(-y) \
        * (1 - fy) ** (n - l)


def density_workload(k: int = 4, l: int = 9, n: int = 12, lo: float = 0.1, hi: float = 1.9,
                     step: float = 0.2) -> Workload:
    def origins(seed: int) -> tuple[float, float]:
        ox, oy = np.random.default_rng([seed]).uniform(0.0, step, size=2)
        return round(float(ox), 6), round(float(oy), 6)

    def grids(seed: int) -> tuple[list[float], list[float]]:
        ox, oy = origins(seed)
        return _grid(lo + ox, hi + ox, step), _grid(lo + oy, hi + oy, step)

    def args(seed: int) -> list[str]:
        ox, oy = origins(seed)
        return ["density", "--kind", "order-stat-joint", "--k", str(k), "--l", str(l),
                "--n", str(n), "--x-grid", f"{lo + ox!r}:{hi + ox!r}:{step!r}",
                "--y-grid", f"{lo + oy!r}:{hi + oy!r}:{step!r}"]

    def items(seed: int) -> int:
        xg, yg = grids(seed)
        return len(xg) * len(yg)

    def check(outdir: Path, seed: int) -> None:
        _files(outdir, "density.csv", "manifest.json")
        got = _count_rows(outdir / "density.csv", "x,y,direct,mixture,rel_err")
        _require(got == items(seed), f"density.csv has {got} rows, expected {items(seed)}")
        table = np.loadtxt(outdir / "density.csv", delimiter=",", skiprows=1, ndmin=2)
        xg, yg = grids(seed)
        for (x, y, direct, mixture, rel), (xv, dy) in zip(table, ((a, b) for a in xg for b in yg)):
            _require(abs(x - xv) <= 1e-12 and abs(y - (xv + dy)) <= 1e-12,
                     f"row ({x}, {y}) is off the grid")
            want = _order_stat_joint(k, l, n, x, y)
            _require(abs(direct - want) <= 1e-12 * want,
                     f"direct density at ({x}, {y}) is {direct}, closed form {want}")
            _require(abs(mixture - direct) <= 1e-9 * direct and rel <= 1e-9,
                     f"dual paths disagree at ({x}, {y}): rel_err {rel:.3e}")

    return Workload(
        name="density-osj",
        why="The only workload that runs threshold; about 90% of it is rational-arithmetic "
            "irwin_hall_pdf inside the adaptive Gauss-Legendre panels.",
        args=args, items=items, check=check,
    )


WORKLOADS = {w.name: w for w in (
    simulate_workload(), cycles_workload(), gibbs_workload(), density_workload(),
)}
