"""Load-sharing rules built from absorbing Markov chains on component graphs.

A grid of fiber-segment components defines a one-step transition matrix
(equal probability to each horizontal/diagonal neighbor).  For a working set
A, freezing the chain on A and solving the absorption-probability system
gives the share of load each failed component sheds onto each survivor; the
resulting multipliers form a monotone load-sharing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ComponentGraph",
    "TransitionMatrix",
    "Configuration",
    "AbsorptionResult",
    "MonotoneCheck",
    "build_grid_graph",
    "transition_matrix",
    "complete_graph_transition",
    "absorption_probabilities",
    "verify_monotone",
    "share_table",
    "share_rows",
    "NonMonotoneRuleError",
    "InvalidShareError",
    "AbsorbingRule",
    "EqualRule",
    "UnitRule",
]

_ROW_SUM_TOL = 1e-9
_REL_TOL = 1e-9  # relative drop in a share that counts as non-monotone
_TABLE_MAX_BYTES = 256 << 20  # 2^n * n float64 shares: n <= 20; n * n transitions: n <= 5,792
_BATCH = 1 << 12  # working sets per rule call in share_rows: bounds its temporaries


class NonMonotoneRuleError(RuntimeError):
    """A load share decreased after a removal; the rule is not monotone.
    ``counterexample`` is (A, B, j): j's share at A is below that at its superset B."""

    def __init__(self, message: str, counterexample=None):  # unpickling passes the message only
        super().__init__(message)
        self.counterexample = counterexample


class InvalidShareError(ValueError):
    """A rule gave a member a share that is not finite and > 0, or a failed
    component a nonzero share; ``mask`` is the working set's mask."""

    def __init__(self, n: int, mask: int, i: int, value: float):
        super().__init__(f"rule gave component {i} the share {value} at working set "
                         f"{sorted(_working(n, mask))}; a member needs a finite share > 0, "
                         "a failed one none")
        self.mask = mask
        self._given = (n, mask, i, value)

    def __reduce__(self):  # unpickling calls __init__ with these, not with the message
        return type(self), self._given


class SingularAbsorptionError(RuntimeError):
    """The absorption system is (near-)singular: some failed component has no
    route to the working set.  Cannot happen on a connected graph; raised as an
    internal-consistency failure rather than returning garbage."""


@dataclass(frozen=True)
class ComponentGraph:
    """Grid of fiber-segment nodes with horizontal and diagonal adjacency.

    Node (r, c) has index r*cols + c.  Neighbors are (r, c±1) and (r±1, c±1)
    when they exist; never (r±1, c).
    """

    rows: int
    cols: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def node_index(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"node ({r},{c}) outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic one-step matrix; p[i, j] > 0 exactly on graph edges."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(p < 0):
            raise ValueError("transition probabilities must be non-negative")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each row must sum to 1 within 1e-12")
        if np.any(np.diag(p) != 0):
            raise ValueError("self-transitions are not allowed")
        if np.any((p > 0) != (p.T > 0)):
            raise ValueError("edge support must be symmetric")

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class Configuration:
    """The set of working components A within {0..n-1}."""

    n: int
    working: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "working", frozenset(self.working))
        _check_n(self.n)
        if any(not (0 <= i < self.n) for i in self.working):
            raise ValueError("working set contains out-of-range components")

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Configuration":
        """The set bits of ``mask`` below bit n."""
        return cls(n, _working(n, mask))

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.working)

    def __len__(self) -> int:
        return len(self.working)


class AbsorptionResult(NamedTuple):
    """Absorption probabilities u[i, j] from failed node i into working node j."""

    failed: tuple[int, ...]
    working: tuple[int, ...]
    u: np.ndarray


class MonotoneCheck(NamedTuple):
    ok: bool
    counterexample: tuple[frozenset[int], frozenset[int], int] | None


def _working(n: int, mask: int) -> frozenset[int]:
    """The working set of ``mask``: its set bits below bit n."""
    return frozenset(i for i in range(n) if mask >> i & 1)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def _check_bytes(what: str, nbytes: int, advice: str) -> None:
    """The one size bound on dense per-bundle arrays, checked before allocating."""
    if nbytes > _TABLE_MAX_BYTES:
        raise ValueError(f"{what} takes {nbytes} bytes, more than the "
                         f"{_TABLE_MAX_BYTES}-byte bound; {advice}")


def build_grid_graph(rows: int, cols: int) -> ComponentGraph:
    """Grid graph with horizontal and diagonal (never vertical) adjacency.

    Interior nodes have exactly six neighbors.  A single-column grid is
    rejected: with no horizontal or diagonal neighbor there is nowhere to
    shed load.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if cols < 2:
        raise ValueError("cols must be >= 2 (a single-fiber grid has no neighbors)")
    adjacency = []
    for r in range(rows):
        for c in range(cols):
            nbrs = []
            for dr, dc in ((0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    nbrs.append(rr * cols + cc)
            nbrs.sort()
            adjacency.append(tuple(nbrs))
    return ComponentGraph(rows=rows, cols=cols, adjacency=tuple(adjacency))


def transition_matrix(g: ComponentGraph) -> TransitionMatrix:
    """Equal one-step probability to each neighbor: p[i, j] = 1/degree(i)."""
    n = g.n
    _check_bytes(f"a transition matrix for n = {n}", n * n * 8, "use a smaller grid")
    p = np.zeros((n, n))
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            p[i, j] = 1.0 / len(nbrs)
    return TransitionMatrix(p)


def complete_graph_transition(n: int) -> TransitionMatrix:
    """Complete-graph chain: p[i, j] = 1/(n-1) for j != i.

    Test oracle: the absorbing rule on this chain reduces to the equal rule.
    """
    if n < 2:
        raise ValueError("complete graph needs at least 2 nodes")
    _check_bytes(f"a transition matrix for n = {n}", n * n * 8, "use a smaller grid")
    p = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(p, 0.0)
    return TransitionMatrix(p)


def absorption_probabilities(p: TransitionMatrix, member) -> AbsorptionResult:
    """Solve U = QU + R for the chain frozen on the working set A, given by its
    length-n membership row (``member[i]`` is true when component i works).

    Q holds failed-to-failed transitions, R failed-to-working; the solution
    (I - Q)^{-1} R gives, row by row, how a failed component's load splits
    over the survivors.  Rows sum to 1 on a connected graph.
    """
    member = np.asarray(member, dtype=bool)
    if member.shape != (p.n,):
        raise ValueError("membership row size does not match transition matrix")
    (working,), (failed,) = member.nonzero(), (~member).nonzero()
    if not working.size:
        raise ValueError("working set must be nonempty")
    from_failed = p.p.take(failed, axis=0)
    # I - Q as 0.0 - Q with 1 on the diagonal: unlike -Q, 0.0 - Q keeps zeros
    # unsigned, and Q's diagonal is 0, so the matrix is bit for bit np.eye(k) - Q
    m = np.subtract(0.0, from_failed.take(failed, axis=1))
    m.flat[::failed.size + 1] = 1.0
    try:
        u = np.linalg.solve(m, from_failed.take(working, axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularAbsorptionError(
            f"absorption system singular for working set {tuple(working.tolist())}: "
            "some failed component cannot reach the working set"
        ) from exc
    if not all(abs(s - 1.0) <= _ROW_SUM_TOL for s in u.sum(axis=1).tolist()):  # NaN fails too
        dev = np.abs(u.sum(axis=1) - 1.0).max()
        raise SingularAbsorptionError(
            f"absorption rows do not sum to 1 (max dev {dev:.3e}, "
            f"cond {np.linalg.cond(m):.3e})"
        )
    return AbsorptionResult(tuple(failed.tolist()), tuple(working.tolist()), u)


# A rule maps a (k, n) boolean membership array, row r true at the members of
# working set r (each nonempty), to its (k, n) float64 shares: each member's
# finite and > 0, each failed component's 0.0.
Rule = Callable[[np.ndarray], np.ndarray]


class AbsorbingRule:
    """Absorbing-state rule: each survivor carries 1 plus the load absorbed
    from every failed component, one absorption solve per working set."""

    def __init__(self, transition: TransitionMatrix):
        self.transition = transition

    @property
    def n(self) -> int:
        return self.transition.n

    def __call__(self, member: np.ndarray) -> np.ndarray:
        rows = np.zeros(member.shape)
        for row, working in zip(rows, member):
            res = absorption_probabilities(self.transition, working)
            row.put(res.working, 1.0 + res.u.sum(axis=0))  # faster than row[list(res.working)] =
        return rows


def _sizes(member: np.ndarray, n: int) -> np.ndarray:
    """The (k, 1) float sizes of the nonempty working sets of ``member``, of n components."""
    if member.shape[1] != n:
        raise ValueError("configuration size does not match n")
    sizes = member.sum(axis=1, keepdims=True, dtype=float)  # a float divisor divides faster
    if np.count_nonzero(sizes) < len(sizes):  # faster than sizes.all() on one row
        raise ValueError("working set must be nonempty")
    return sizes


class EqualRule:
    """Equal rule on n components: the total load n split evenly over the survivors."""

    def __init__(self, n: int):
        _check_n(n)
        self.n = n

    def __call__(self, member: np.ndarray) -> np.ndarray:
        return np.where(member, self.n / _sizes(member, self.n), 0.0)


class UnitRule:
    """No-sharing reference rule, lambda == 1 everywhere.

    Deliberately violates load conservation; it is the independence oracle
    for the Gibbs construction, not a physical rule.
    """

    def __init__(self, n: int):
        _check_n(n)
        self.n = n

    def __call__(self, member: np.ndarray) -> np.ndarray:
        _sizes(member, self.n)
        return np.where(member, 1.0, 0.0)  # each survivor keeps its 1


def _table_fits(n: int) -> bool:
    return (1 << n) * n * 8 <= _TABLE_MAX_BYTES


def _rule_rows(rule: Rule, member: np.ndarray) -> np.ndarray:
    """``rule``'s (k, n) float64 shares for the (k, n) membership array
    ``member``, once checked: shares of another shape raise ``ValueError``,
    and the first bad share in row order :class:`InvalidShareError`."""
    rows = np.asarray(rule(member), dtype=float)
    if rows.shape != member.shape:
        raise ValueError(f"rule gave shares of shape {rows.shape} for a membership array of "
                         f"shape {member.shape}; it needs one row of n = {member.shape[1]} "
                         "shares per working set")
    # sign is 1 at a share > 0, 0 at a zero, -1 below it and NaN at NaN
    ok = (np.sign(rows) == member) & (rows < math.inf)
    if np.count_nonzero(ok) < ok.size:  # faster than ok.all() on one row
        r, i = divmod(int(ok.argmin()), member.shape[1])
        mask = int.from_bytes(np.packbits(member[r], bitorder="little").tobytes(), "little")
        raise InvalidShareError(member.shape[1], mask, i, float(rows[r, i]))
    return rows


def share_rows(rule: Rule, n: int, masks) -> np.ndarray:
    """(len(masks), n) float64 load shares, one row per working-set mask of
    the sequence ``masks``, 0.0 for mask 0.  The nonempty masks go to
    ``rule`` as membership arrays, one call per batch of at most 4,096 masks
    in the given order, each checked by :func:`_rule_rows`, so the first bad
    component of the first bad mask raises.  n < 1 is a ``ValueError``."""
    _check_n(n)
    rows = np.zeros((len(masks), n))
    top, k = 1 << n, (n + 7) // 8  # k bytes per mask, so any n
    for lo in range(0, len(rows), _BATCH):
        batch = list(map(int, masks[lo:lo + _BATCH]))
        if min(batch) < 0 or max(batch) >= top:
            mask = next(m for m in batch if not 0 <= m < top)
            raise ValueError(f"working-set mask {mask} is outside 0..{top - 1} for n = {n}")
        packed = np.frombuffer(b"".join(m.to_bytes(k, "little") for m in batch), np.uint8)
        member = np.unpackbits(packed.reshape(-1, k), axis=1, count=n, bitorder="little").view(bool)
        live = member.any(axis=1)
        if live.any():
            rows[lo:lo + len(batch)][live] = _rule_rows(rule, member[live])
    return rows


_last_table: list = [None, None]  # rule and table of the latest share_table build


def share_table(rule: Rule, n: int) -> np.ndarray:
    """Read-only (2^n, n) float64 table of load shares indexed by working-set
    mask, 0.0 outside the working set (a failed component carries no load).

    Built and checked in one pass over aligned batches of 4,096 masks: each
    batch's rows come from :func:`share_rows`, then its first working set in
    mask order from which one failure lowers a survivor's share raises
    :class:`NonMonotoneRuleError`, before the next batch is built.  The latest
    table is kept with its rule, matched by identity, so the sampler, the Gibbs
    builder and :func:`verify_monotone` share one build.  n < 1 is a ``ValueError``.
    """
    _check_n(n)
    last_rule, last = _last_table
    if last_rule is rule and last.shape[1] == n:
        return last
    _check_bytes(f"a share table for n = {n}", (1 << n) * n * 8,
                 "use sampling for larger bundles")
    table = np.empty((1 << n, n))
    for lo in range(0, 1 << n, _BATCH):
        hi = min(lo + _BATCH, 1 << n)
        rows = table[lo:hi]
        rows[:] = share_rows(rule, n, range(lo, hi))
        # drops[b, j]: removing one member from working set b lowers survivor j's
        # share; by transitivity, single removals cover every pair of nested sets
        scaled = rows * (1.0 - _REL_TOL)
        drops = np.zeros(rows.shape, bool)
        for i in range(n):
            if 1 << i < hi - lo:
                # axis 1 is bit i of the mask: [:, 0] is the working set without i
                without = rows.reshape(-1, 2, 1 << i, n)[:, 0]
                within, at = (x.reshape(-1, 2, 1 << i, n)[:, 1] for x in (scaled, drops))
            elif lo >> i & 1:  # every mask of the batch holds i: without it, an earlier batch
                without, within, at = table[lo - (1 << i):hi - (1 << i)], scaled, drops
            else:
                continue
            drop = without < within
            drop[..., i] = False  # i itself fails and sheds its whole share
            at |= drop
        if drops.any():  # the first such working set b, its smallest i, then smallest j
            b = lo + int(drops.any(axis=1).argmax())
            i, j = next((i, j) for i in range(n) for j in range(n) if b >> i & 1 and j != i
                        and table[b & ~(1 << i), j] < table[b, j] * (1.0 - _REL_TOL))
            raise NonMonotoneRuleError(
                f"share of component {j} dropped from {table[b, j]} to "
                f"{table[b & ~(1 << i), j]} when component {i} failed from working-set mask {b}",
                (_working(n, b & ~(1 << i)), _working(n, b), j))
    table.flags.writeable = False
    _last_table[:] = rule, table
    return table


def verify_monotone(rule: Rule, n: int) -> MonotoneCheck:
    """Check that failures never relieve a survivor: lambda_j(B) <= lambda_j(A)
    for every A subset of B containing j, plus valid shares.

    The verdict of :func:`share_table`, whose table it keeps; its first failing
    batch of 4,096 masks decides.  The batch's first working set B with an
    invalid share comes back as (B, B, -1), else its first B in mask order with
    a single removal B - A that lowers survivor j's share (relative 1e-9), as
    (A, B, j) of smallest removed component, then smallest j.  n < 1 is a ``ValueError``.
    """
    try:
        share_table(rule, n)
    except InvalidShareError as exc:
        b = _working(n, exc.mask)
        return MonotoneCheck(False, (b, b, -1))
    except NonMonotoneRuleError as exc:
        return MonotoneCheck(False, exc.counterexample)
    return MonotoneCheck(True, None)
