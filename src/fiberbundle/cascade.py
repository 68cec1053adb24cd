"""Failure-cascade simulation for loaded bundles.

A bundle under increasing load fails in Phase I/II cycles: the external load
grows until one component breaks (Phase I), the shed load may knock out
groups of further components instantaneously (Phase II bursts), and the
process repeats until the survivor set no longer contains a path set of the
structure.  The bundle strength is the Phase-I stress of the terminal cycle.

Two execution paths are provided: a scalar :func:`simulate_cascade` that
records the full breaking pattern, and a vectorized sampler that moves a
block of replicas through the cascade one step per pass (a Phase-I failure
or a burst step each), reading a precomputed load-share table and a table of
which working sets keep the structure alive.  A replica leaves the block as
soon as its structure fails, with the strength the scalar cascade gives it.
A bundle too large for the tables runs the scalar cascade in the sampler's
same chunks.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .distributions import StrengthModel
from .loadshare import _REL_TOL, NonMonotoneRuleError, Rule, _rule_rows, _table_fits, share_table

__all__ = [
    "ComponentStrengths",
    "StructureFunction",
    "PatternCycle",
    "BreakingPattern",
    "CascadeResult",
    "ChainSpec",
    "NonMonotoneRuleError",
    "simulate_cascade",
    "sample_bundle_strengths",
    "chain_strength",
    "cycles_to_failure",
    "cycles_to_failure_samples",
    "replay_pattern",
    "enumerate_patterns",
    "format_pattern",
    "parse_pattern",
    "PowerScaledRule",
]

_CHUNK = 1 << 16  # replicas per (seed, chunk) generator: fixes the sample stream
_BLOCK = 1 << 12  # replicas drawn and run at a time: bounds the kernel's (rows, n) temporaries


@dataclass(frozen=True)
class ComponentStrengths:
    """Realized strengths of the n components, optionally with their law."""

    x: tuple[float, ...]
    model: StrengthModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not all(v > 0 for v in self.x):  # a NaN is not > 0 either
            raise ValueError("all component strengths must be strictly positive")

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class StructureFunction:
    """Coherent structure given by its minimal path sets: pairwise-disjoint,
    nonempty bit masks (bit i is component i) that together cover the n
    components.  The system works while some path is wholly intact.

    ``parallel``: each component is a path, so any single survivor keeps the
    system alive.  ``column-paths``: each grid column is a path, so the
    smallest cut sets are transversals with one node per column.
    """

    n: int
    paths: tuple[int, ...]

    @classmethod
    def parallel(cls, n: int) -> "StructureFunction":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def column_paths(cls, rows: int, cols: int) -> "StructureFunction":
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        column = sum(1 << r * cols for r in range(rows))
        return cls(rows * cols, tuple(column << c for c in range(cols)))

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        full, covered = (1 << self.n) - 1, 0
        for path in self.paths:
            if not 0 < path <= full:
                raise ValueError(f"path {path:#b} is empty or names a component >= n = {self.n}")
            if path & covered:
                raise ValueError(f"path {path:#b} overlaps an earlier path in {path & covered:#b}")
            covered |= path
        if covered != full:
            raise ValueError(f"components {full & ~covered:#b} of n = {self.n} are in no path")

    def smallest_cut_size(self) -> int:
        return len(self.paths)

    def works(self, working: frozenset[int]) -> bool:
        mask = sum(1 << i for i in working)
        return any((mask & path) == path for path in self.paths)

    def _works_masks(self, masks: np.ndarray) -> np.ndarray:
        ok = np.zeros(masks.shape, dtype=bool)
        for path in self.paths:
            ok |= (masks & path) == path
        return ok


@dataclass(frozen=True)
class PatternCycle:
    """One Phase I/II cycle: the Phase-I component and its ordered burst groups."""

    phase1: int
    groups: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(frozenset(g) for g in self.groups))
        if any(not g for g in self.groups):
            raise ValueError("burst groups must be nonempty")
        if 1 + sum(len(g) for g in self.groups) != len(self.components()):
            raise ValueError("components repeat within a cycle")

    def components(self) -> frozenset[int]:
        out = {self.phase1}
        for g in self.groups:
            out |= g
        return frozenset(out)


@dataclass(frozen=True)
class BreakingPattern:
    """Ordered record of the failure process, one entry per Phase I/II cycle."""

    cycles: tuple[PatternCycle, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        seen: set[int] = set()
        for cyc in self.cycles:
            comps = cyc.components()
            if seen & comps:
                raise ValueError("components repeat across the breaking pattern")
            seen |= comps

    def components(self) -> frozenset[int]:
        out: set[int] = set()
        for cyc in self.cycles:
            out |= cyc.components()
        return frozenset(out)

    def __str__(self) -> str:
        return format_pattern(self)


def format_pattern(pattern: BreakingPattern) -> str:
    """Render with 1-based labels, bursts as nested groups: ``1(2,3(4)) 5``."""

    def nest(groups: tuple[frozenset[int], ...]) -> str:
        if not groups:
            return ""
        inner = ",".join(str(i + 1) for i in sorted(groups[0]))
        return "(" + inner + nest(groups[1:]) + ")"

    return " ".join(str(c.phase1 + 1) + nest(c.groups) for c in pattern.cycles)


def parse_pattern(text: str) -> BreakingPattern:
    """Inverse of :func:`format_pattern`."""
    pos = 0

    def fail(msg: str):
        raise ValueError(f"bad pattern at position {pos}: {msg} in {text!r}")

    def read_int() -> int:
        nonlocal pos
        m = re.match(r"\d+", text[pos:])
        if not m:
            fail("expected component label")
        pos += m.end()
        return int(m.group()) - 1

    def read_groups() -> tuple[frozenset[int], ...]:
        nonlocal pos
        if pos >= len(text) or text[pos] != "(":
            return ()
        pos += 1
        members = {read_int()}
        while pos < len(text) and text[pos] == ",":
            pos += 1
            members.add(read_int())
        rest = read_groups()
        if pos >= len(text) or text[pos] != ")":
            fail("expected ')'")
        pos += 1
        return (frozenset(members),) + rest

    cycles = []
    while pos < len(text):
        while pos < len(text) and text[pos] == " ":
            pos += 1
        if pos >= len(text):
            break
        phase1 = read_int()
        groups = read_groups()
        cycles.append(PatternCycle(phase1, groups))
    if not cycles:
        raise ValueError(f"empty pattern {text!r}")
    return BreakingPattern(tuple(cycles))


@dataclass(frozen=True)
class CascadeResult:
    strength: float
    phase1_stresses: tuple[float, ...]
    pattern: BreakingPattern
    survivor_sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ChainSpec:
    """Series chain of m identical bundles; the chain strength is the minimum."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chain length must be >= 1")


def _as_strengths(x, n: int) -> list[float]:
    """The n component strengths as Python floats, each one >= 0 (so not NaN);
    a zero (an underflowed draw) fails at load 0 and a ratio past the largest
    float is inf, without a warning, as in the kernel."""
    if isinstance(x, ComponentStrengths):
        x = x.x
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("strengths must be a 1-d vector")
    if arr.size != n:
        raise ValueError(f"expected {n} strengths, got {arr.size}")
    xs = arr.tolist()
    if not all(v >= 0 for v in xs):
        raise ValueError("all component strengths must be strictly positive or zero")
    return xs


def _share_walk(rule: Rule, n: int) -> Callable[[frozenset[int]], list[float]]:
    """Share rows (lists of n floats, 0.0 outside the working set) along a walk
    down nested working sets, one ``rule`` call per set on a one-row
    membership array, each row checked as
    :func:`~fiberbundle.loadshare.share_rows` checks its batches.

    Asking again for the latest set returns its row without a call, and the
    empty set's row is all zeros.  A member whose share drops from the
    previous set's by more than the relative tolerance raises
    :class:`NonMonotoneRuleError` (set, previous set, member).
    """
    empty = [0.0] * n
    latest: list = [None, empty]

    def shares(working: frozenset[int]) -> list[float]:
        if not working:
            return empty
        if working == latest[0]:
            return latest[1]
        prev = latest[1]
        # from a list of bools: on the hot walk it builds faster than zeros and a fancy assignment
        row = _rule_rows(rule, np.array([[i in working for i in range(n)]]))[0].tolist()
        for j in working:
            if row[j] < prev[j] * (1.0 - _REL_TOL):
                raise NonMonotoneRuleError(
                    f"share of component {j} dropped from {prev[j]} to {row[j]} after removals",
                    (working, latest[0], j))
        latest[:] = working, row
        return row

    return shares


def _pattern_steps(pattern: BreakingPattern, rule: Rule, n: int) -> Iterator[tuple]:
    """Walk a breaking pattern's cycles down its working sets, through one share walk.

    Yields ``(cycle, working, shares, bursts, survivors, survivor_shares)`` per
    cycle, where ``bursts`` holds ``(group, before, after)``: the shares the
    group survived (before the previous removal) and failed under (after it).
    The walk follows the pattern, not the strengths, so replay and the
    pattern density share it.
    """
    for i in sorted(pattern.components()):
        if not 0 <= i < n:
            raise ValueError(f"pattern names component {i + 1}, but the bundle has n = {n}")
    shares = _share_walk(rule, n)
    working = frozenset(range(n))
    for cyc in pattern.cycles:
        lam = shares(working)
        before, cur, bursts = lam, working - {cyc.phase1}, []
        for grp in cyc.groups:
            after = shares(cur)
            bursts.append((grp, before, after))
            before, cur = after, cur - grp
        yield cyc, working, lam, tuple(bursts), cur, shares(cur)
        working = cur


def simulate_cascade(x, rule: Rule, structure: StructureFunction) -> CascadeResult:
    """Run one full Phase I/II cascade and record the breaking pattern.

    Each cycle finds the smallest load at which a survivor breaks, removes it,
    then repeatedly strips every component whose strength is no longer above
    its (recomputed) share of that load, one burst group per recomputation.
    Stops once the survivor set contains no minimal path set.  Phase-I
    stresses never decrease (two may be equal), so none is checked here.
    """
    n = structure.n
    xs = _as_strengths(x, n)
    shares = _share_walk(rule, n)
    working = frozenset(range(n))
    survivor_sets = [working]
    stresses: list[float] = []
    cycles: list[PatternCycle] = []
    while True:
        lam = shares(working)
        order = sorted(working)
        ratios = [xs[i] / lam[i] for i in order]
        s_u = min(ratios)
        i0 = order[ratios.index(s_u)]  # the first in column order on a tie
        cur = working - {i0}
        groups: list[frozenset[int]] = []
        while cur:
            lam2 = shares(cur)
            grp = frozenset(i for i in cur if xs[i] <= lam2[i] * s_u)
            if not grp:
                break
            groups.append(grp)
            cur = cur - grp
        cycles.append(PatternCycle(i0, tuple(groups)))
        stresses.append(s_u)
        survivor_sets.append(cur)
        working = cur
        if not structure.works(working):
            break
    return CascadeResult(
        strength=stresses[-1],
        phase1_stresses=tuple(stresses),
        pattern=BreakingPattern(tuple(cycles)),
        survivor_sets=tuple(survivor_sets),
    )


def replay_pattern(pattern: BreakingPattern, x, rule: Rule, structure: StructureFunction) -> bool:
    """Check a pattern against the strength vector by replaying its constraints.

    Verifies, cycle by cycle: the Phase-I equality defining each breaking
    stress, non-decreasing stresses, Phase-I minimality, the lower/upper
    share bounds bracketing every burst component, burst termination, and that
    the structure survives exactly until the final cycle.  Independent of the
    bookkeeping in :func:`simulate_cascade`, which it serves as an oracle for.
    """
    xs = _as_strengths(x, structure.n)
    lo, hi = 1.0 - _REL_TOL, 1.0 + _REL_TOL
    prev_s = 0.0
    last = len(pattern.cycles) - 1
    for idx, (cyc, working, lam, bursts, cur, lam_t) in enumerate(
            _pattern_steps(pattern, rule, structure.n)):
        s_u = xs[cyc.phase1] / lam[cyc.phase1]
        if s_u < prev_s * lo:
            return False
        # Phase-I minimality on the load ratios, as the cascade decides it: a
        # share times the stress rounds too coarsely among the subnormals
        if any(xs[j] / lam[j] < s_u * lo for j in working if j != cyc.phase1):
            return False
        for k, (grp, lam_lo, lam_hi) in enumerate(bursts):
            # the first group's lower bound is Phase-I minimality (a zero meets it)
            if any(xs[j] > lam_hi[j] * s_u * hi or (k and xs[j] <= lam_lo[j] * s_u * lo)
                   for j in grp):
                return False
        if any(xs[j] <= lam_t[j] * s_u * lo for j in cur):
            return False  # burst should have continued
        if structure.works(cur) == (idx == last):
            return False
        prev_s = s_u
    return True


class PowerScaledRule:
    """Transform a rule into {(lambda_i(M)/sigma_i)**rho}.

    Maps a Weibull-strength cascade onto an equivalent unit-exponential one:
    simulate exponentials under the transformed rule, then take the rho-th
    root of the resulting stresses.
    """

    def __init__(self, base: Rule, scales, rho: float):
        self.base = base
        self.scales = np.asarray(scales, dtype=float)
        self.rho = float(rho)

    def __call__(self, member: np.ndarray) -> np.ndarray:
        try:
            sig = np.broadcast_to(self.scales, member.shape[1])
        except ValueError:
            raise ValueError(f"scale vector has length {self.scales.size}, but the bundle has "
                             f"n = {member.shape[1]} components") from None
        rows = np.zeros(member.shape)
        ratios = np.asarray(self.base(member), dtype=float)[member] / sig[np.nonzero(member)[1]]
        # one scalar ** per member: NumPy's vectorised power can differ in the last bit
        rows[member] = [v ** self.rho for v in ratios]
        return rows


# ---------------------------------------------------------------------------
# vectorized sampling


@functools.lru_cache(maxsize=1)
def _works_table(structure: StructureFunction) -> np.ndarray:
    """Read-only ``works[mask]``: whether the working set ``mask`` keeps
    ``structure`` alive, for all 2^n masks; the latest structure's table is kept."""
    works = structure._works_masks(np.arange(1 << structure.n, dtype=np.int64))
    works.flags.writeable = False
    return works


def _phase_one(ratio: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-I stress (row minimum of the load ratios) and the bit of the
    component that fails at it, the first in column order on a tie.

    ``np.fmin`` skips NaN, the 0 / 0 ratio of a failed zero-strength component.
    """
    s = ratio[:, 0]
    for j in range(1, ratio.shape[1]):
        s = np.fmin(s, ratio[:, j])
    at_min = ((ratio == s[:, None]) @ weight).astype(np.int64)
    return s, at_min & -at_min


def _cascade_strengths_block(x: np.ndarray, table: np.ndarray,
                             structure: StructureFunction) -> np.ndarray:
    """Strengths for a block of replicas, bit-mask state per replica.

    One flat loop moves every live replica one step per pass: a replica whose
    working set fails the structure retires with its current Phase-I stress;
    the others take one burst step, ``x <= share * s`` on their share row, and
    a replica whose step removes nothing starts its next cycle (Phase I) from
    that same row.  The structure is coherent, so a replica retired within a
    burst has the strength the finished burst would give it.

    Failed components have share 0.0 in the table, so their ratio x / share
    is +inf (NaN for a zero strength, which fails at s = 0 in the first cycle)
    and ``x <= share * s`` is false: no membership mask is needed; past the
    largest float a ratio or a load is inf, unwarned.  Row bits are packed
    by a float matrix-vector product with weights 2^i, exact for
    n <= 20.  The state of the live replicas is compacted when some retire;
    the caller's ``x`` is not modified.  Every pass fails a working
    component of each live replica, so all have retired by the n-th pass;
    a NaN stress fails none, and replicas still live then raise
    ``ArithmeticError``.
    """
    m, n = x.shape
    works = _works_table(structure)
    weight = np.ldexp(1.0, np.arange(n))
    strength = np.empty(m)
    rows = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, first = _phase_one(x / table[-1], weight)
        masks = np.int64((1 << n) - 1) ^ first
        for _ in range(n):
            live = works[masks]
            if not live.all():
                done = np.flatnonzero(~live)
                strength[rows.take(done)] = s.take(done)
                keep = np.flatnonzero(live)
                if not keep.size:
                    break
                rows, masks, s = rows.take(keep), masks.take(keep), s.take(keep)
                x = x.take(keep, axis=0)
            g = np.take(table, masks, axis=0)
            rem = ((x <= g * s[:, None]) @ weight).astype(np.int64) & masks
            masks ^= rem
            idle = np.flatnonzero(rem == 0)
            if idle.size:
                s_idle, first = _phase_one(x.take(idle, axis=0) / g.take(idle, axis=0), weight)
                s[idle] = s_idle
                masks[idle] ^= first
        else:
            if rows.size:
                raise ArithmeticError(
                    f"cascade kernel: {rows.size} replicas still live after {n} passes, so a "
                    "pass failed no working component (a NaN stress; is the share table finite?)")
    return strength


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # keyed by (seed, chunk); chunk boundaries are fixed, so the sample stream
    # is independent of how chunks are assigned to workers
    return np.random.default_rng([seed, chunk_index])


_WORKER: dict = {}


def _init_worker(model, table, rule, structure, seed, n):
    _WORKER.update(model=model, table=table, rule=rule, structure=structure, seed=seed, n=n)


def _run_worker_chunk(spec: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """Strengths of one chunk, written into ``out`` if given, drawn from its
    generator and run ``_BLOCK`` rows at a time; the draws are sequential, so
    the blocks join into the chunk's whole draw, and each replica's strength
    depends on its own row only."""
    ci, size = spec
    w = _WORKER
    table, structure = w["table"], w["structure"]
    rng = _chunk_rng(w["seed"], ci)
    out = np.empty(size) if out is None else out
    for lo in range(0, size, _BLOCK):
        x = w["model"].sample(rng, w["n"], min(_BLOCK, size - lo))
        # an infinite strength never breaks, and inf * 0 shares give NaN loads
        overflowed = np.count_nonzero(np.isinf(x))
        if overflowed:
            raise ArithmeticError(
                f"{overflowed} of {x.size} component strength draws overflowed to inf "
                f"under {w['model']}")
        if table is not None:
            out[lo:lo + _BLOCK] = _cascade_strengths_block(x, table, structure)
        else:  # no dense table for this n: one scalar cascade per replica
            out[lo:lo + _BLOCK] = [simulate_cascade(row, w["rule"], structure).strength for row in x]
    return out


def sample_bundle_strengths(model: StrengthModel, rule: Rule, structure: StructureFunction,
                            replicas: int, seed: int = 0,
                            workers: int | None = None) -> np.ndarray:
    """Draw iid bundle strengths under ``model`` components and the given rule.

    Deterministic in (seed, replica index): replicas are generated in fixed
    chunks with a per-chunk generator keyed by (seed, chunk), so the output
    is byte-identical regardless of the worker count.  Each chunk is drawn
    and run in blocks of 4,096 replicas, straight into the one returned array
    (as each worker's chunk arrives, with workers), so the sampler's working
    memory does not grow with ``replicas``.  Blocks run the
    vectorized kernel (one flat step loop, strengths equal to
    :func:`simulate_cascade`'s) on the rule's share table when it fits its
    byte bound, else the scalar cascade per replica; workers receive the rule
    only then.  A replica count whose output array cannot be allocated raises
    ``ValueError`` naming it.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    n = structure.n
    table = share_table(rule, n) if _table_fits(n) else None
    initargs = (model, table, rule if table is None else None, structure, seed, n)
    specs = [(ci, min(_CHUNK, replicas - ci * _CHUNK)) for ci in range((replicas + _CHUNK - 1) // _CHUNK)]
    try:
        out = np.empty(replicas)
    except MemoryError as exc:
        raise ValueError(f"{replicas} replicas: {exc}") from None
    if workers is None or workers <= 1 or len(specs) == 1:
        _init_worker(*initargs)
        for ci, size in specs:
            _run_worker_chunk((ci, size), out[ci * _CHUNK:ci * _CHUNK + size])
    else:
        # imported here only: it loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # one chunk per task, and no process without a chunk to run
        with ProcessPoolExecutor(max_workers=min(workers, len(specs)), initializer=_init_worker,
                                 initargs=initargs) as pool:
            for ci, part in enumerate(pool.map(_run_worker_chunk, specs)):
                out[ci * _CHUNK:ci * _CHUNK + part.size] = part
    return out


def chain_strength(samples, chain: ChainSpec, seed: int = 0,
                   draws: int | None = None) -> np.ndarray:
    """Chain-of-bundles strengths: minima of m draws from the bundle pool.

    The (draws, m) pool indices are drawn and reduced ``_BLOCK`` (4,096)
    rows at a time. The generator's stream runs on from one call to the next,
    so the result equals one draw of all the rows at once.
    """
    pool = np.asarray(samples, dtype=float)
    if pool.size == 0:
        raise ValueError("bundle sample pool is empty")
    if draws is None:
        draws = max(1, pool.size // chain.m)
    rng = np.random.default_rng([seed])
    out = np.empty(draws)
    for lo in range(0, draws, _BLOCK):
        idx = rng.integers(0, pool.size, size=(min(_BLOCK, draws - lo), chain.m))
        np.min(pool[idx], axis=1, out=out[lo:lo + _BLOCK])
    return out


def cycles_to_failure(x, rule: Rule, structure: StructureFunction,
                      s_star: float, a: float) -> int:
    """Number of load ramps 0 -> s_star until the bundle fails.

    Strengths degrade comonotonically: after k completed cycles component i
    has strength a**k * x_i.  With a monotone rule the whole sequence of
    cycles is one quasistatic ramp of the effective load s_star / a**(k-1),
    so the count is the first k with a**(k-1) * S* <= s_star (``_cycle_counts``).
    """
    _check_s_star(s_star)
    _check_degradation(a)
    s = simulate_cascade(x, rule, structure).strength
    return int(_cycle_counts(np.array([s]), s_star, a)[0])


def _check_s_star(s_star: float):
    if not 0 < s_star < math.inf:  # NaN fails too
        raise ValueError(f"s_star must be positive and finite, got {s_star}")


def _check_degradation(a: float):
    if not (0 < a < 1):
        raise ValueError(
            "degradation factor a must lie in (0, 1): without degradation "
            "either the bundle fails in the first cycle or it never fails"
        )


def cycles_to_failure_samples(model: StrengthModel, rule: Rule, structure: StructureFunction,
                              s_star: float, a: float, replicas: int, seed: int = 0,
                              workers: int | None = None) -> np.ndarray:
    """Replicated cycles-to-failure counts (see :func:`cycles_to_failure`).

    The int64 counts overwrite the sampled strengths in place, ``_BLOCK`` at
    a time, so the sampler's one array is all the memory that grows with
    ``replicas``.
    """
    _check_s_star(s_star)
    _check_degradation(a)
    strengths = sample_bundle_strengths(model, rule, structure, replicas, seed, workers)
    counts = strengths.view(np.int64)
    for lo in range(0, strengths.size, _BLOCK):
        counts[lo:lo + _BLOCK] = _cycle_counts(strengths[lo:lo + _BLOCK], s_star, a)
    return counts


def _cycle_counts(s: np.ndarray, s_star: float, a: float) -> np.ndarray:
    """Per strength S in ``s``, the first k with a**(k-1) * S <= s_star (int64)."""
    k = np.ones(s.size, dtype=np.int64)
    above = s > s_star
    ratio = np.log(s_star / s[above]) / np.log(a)
    kk = 1 + np.ceil(ratio).astype(np.int64)
    # guard the ceil against round-off in either direction
    down = (kk > 1) & (a ** (kk - 2) * s[above] <= s_star)
    kk[down] -= 1
    up = a ** (kk - 1) * s[above] > s_star
    kk[up] += 1
    k[above] = kk
    return k


def enumerate_patterns(n: int) -> list[BreakingPattern]:
    """All breaking patterns of a parallel bundle on n components.

    Every ordered assignment of the components to Phase-I failures and nested
    burst groups; for a monotone rule these are exactly the attainable
    patterns.  Exponential in n, guarded to n <= 6.
    """
    if n > 6:
        raise ValueError("pattern enumeration is exponential; n <= 6 only")

    def group_seqs(pool: frozenset[int]):
        yield ()
        items = sorted(pool)
        for pick in range(1, 1 << len(items)):
            first = frozenset(items[i] for i in range(len(items)) if pick >> i & 1)
            for rest in group_seqs(pool - first):
                yield (first,) + rest

    def tails(remaining: frozenset[int]):
        if not remaining:
            yield ()
            return
        for i in sorted(remaining):
            pool = remaining - {i}
            for groups in group_seqs(pool):
                used = frozenset({i}).union(*groups) if groups else frozenset({i})
                for tail in tails(remaining - used):
                    yield (PatternCycle(i, groups),) + tail

    return [BreakingPattern(cycles) for cycles in tails(frozenset(range(n)))]
