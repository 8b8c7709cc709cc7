"""Core instance types, solution types, and the evaluators everything else builds on.

All types are immutable after construction and canonicalized, so structural
equality and hashing behave, and the same inputs always serialize to the same
bytes. Evaluators are pure functions.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError

# A literal is (variable index, polarity); polarity True means positive.
Literal = tuple[int, bool]


_INT64_MAX = int(np.iinfo(np.int64).max)
# the largest vertex count whose packed pair keys u*n + v fit in int64
MAX_VERTICES = math.isqrt(_INT64_MAX)
# rows or pairs handled per block where a whole-array int64 temporary would
# rival the edge columns: pair keys, pair ranks and one-byte pair masks
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class _FreshRows:
    """(3, k) int64 rows u, v, mult, or (2, k) rows u, v of all ones, for one constructor call."""

    rows: np.ndarray


def _edge_columns(items, weighted: bool = True) -> np.ndarray:
    """The u, v rows of an iterable of (u, v) pairs, or, if `weighted`, the
    u, v, mult rows of one that holds (u, v, mult) triples.

    A homogeneous integer list converts in one numpy call. Otherwise each item
    is checked for its shape and integer entries, and the rows hold Python
    ints (object dtype), so a value outside int64 reaches validation intact.
    """
    items = items if isinstance(items, (list, tuple)) else list(items)
    widths = (2, 3) if weighted else (2,)
    try:
        arr = np.array(items)
    except (ValueError, TypeError):  # ragged: pairs mixed with triples
        arr = None
    if arr is not None and arr.dtype.kind in "ib" and arr.ndim == 2 and arr.shape[1] in widths:
        return np.ascontiguousarray(arr.T, dtype=np.int64)
    rows: tuple[list, ...] = ([], [], [])[: widths[-1]]
    for item in items:
        try:
            size = len(item)
        except TypeError:
            size = None
        if size not in widths:
            raise DomainError(f"edge must be (u, v){' or (u, v, mult)' if weighted else ''}, got {item!r}")
        if not all(isinstance(x, numbers.Integral) for x in item):
            raise DomainError(f"edge entries must be integers, got {item!r}")
        for row, x in zip(rows, (*item, 1)):
            row.append(int(x))
    return np.array(rows, dtype=object).reshape(len(rows), -1)


def _first_bad(n: int, cols: np.ndarray) -> DomainError:
    """The error for the first item in input order that fails validation."""
    u, v = cols[:2]
    mult = cols[2] if len(cols) == 3 else np.ones_like(u)
    bad_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    i = int(np.argmax(bad_range | (mult < 1) | (mult > _INT64_MAX)))
    ui, vi, mi = int(u[i]), int(v[i]), int(mult[i])
    if bad_range[i]:
        return DomainError(f"endpoint out of range: ({ui}, {vi}) with n={n}")
    if mi < 1:
        return DomainError(f"multiplicity must be >= 1, got {mi}")
    return DomainError(f"multiplicity {mi} does not fit in int64")


def _keys_increase(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the pair keys u*n + v strictly increase, built a block at a time."""
    for lo in range(0, len(u) - 1, _PAIR_BLOCK):
        key = u[lo : lo + _PAIR_BLOCK + 1] * n
        key += v[lo : lo + _PAIR_BLOCK + 1]
        if not (key[1:] > key[:-1]).all():
            return False
    return True


def _canonical(n: int, cols: np.ndarray, *, ordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Validate (2, k) u, v rows or (3, k) u, v, mult rows and merge them into
    sorted (u, v) pairs; two rows mean every multiplicity is 1.

    The first bad item in input order raises DomainError: an endpoint out of
    range, then a multiplicity below 1 or outside int64. Pairs are packed into
    keys u*n + v (u <= v first when unordered) and repeated keys have their
    multiplicities summed; a per-pair sum or the total that leaves int64 raises
    DomainError too. `cols` must be the caller's own copy. Returns read-only
    int64 rows u, v and a mult column that is the zero-stride view of ones,
    taking no memory, exactly when every merged multiplicity is 1.
    """
    k = cols.shape[1]
    weighted = len(cols) == 3
    if k:
        lo, hi = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()
        if min(lo[:2]) < 0 or max(hi[:2]) >= n or (weighted and (lo[2] < 1 or hi[2] > _INT64_MAX)):
            raise _first_bad(n, cols)
    if weighted and (not k or hi[2] == 1):  # all ones: copy u, v so no ones row stays alive
        cols, weighted = cols[:2].astype(np.int64), False
    elif cols.dtype != np.int64:
        cols = cols.astype(np.int64)
    if not ordered:
        swap = np.flatnonzero(cols[0] > cols[1])
        cols[:2, swap] = cols[1::-1, swap]
    starts = None
    if not _keys_increase(n, cols[0], cols[1]):
        key = cols[0] * n
        key += cols[1]
        order = np.argsort(key)
        key = key[order]
        cols = cols[:, order]
        new = key[1:] != key[:-1]
        if not new.all():
            starts = np.flatnonzero(np.concatenate(([True], new)))
    if weighted and hi[2] * k > _INT64_MAX:  # sums might leave int64: add them exactly first
        at = np.arange(k) if starts is None else starts
        exact = np.add.reduceat(cols[2].astype(object), at)
        i = int(np.argmax(exact))
        if exact[i] > _INT64_MAX:
            raise DomainError(
                f"multiplicities of ({cols[0, at[i]]}, {cols[1, at[i]]}) sum to {exact[i]}, "
                "which does not fit in int64"
            )
        if sum(exact) > _INT64_MAX:
            raise DomainError(f"edge count {sum(exact)} does not fit in int64")
    if starts is not None:
        mult = np.add.reduceat(cols[2], starts) if weighted else np.diff(starts, append=k)
        cols = cols[:2].take(starts, axis=1)  # C order, as [:, starts] would not be
    else:
        mult = cols[2] if weighted else np.broadcast_to(np.int64(1), (k,))
    cols.flags.writeable = mult.flags.writeable = False
    return cols[:2], mult


def _fresh_rows(*cols) -> _FreshRows:
    """Equal-length 1-D signed integer columns as one constructor call's rows."""
    cols = [np.asarray(c) for c in cols]
    if any(c.ndim != 1 or c.dtype.kind not in "ib" or len(c) != len(cols[0]) for c in cols):
        raise DomainError("from_arrays needs equal-length 1-D signed integer columns")
    return _FreshRows(np.stack(cols).astype(np.int64, copy=False))


class _EdgeMultiset:
    """Edges stored as canonical, sorted, read-only int64 columns u, v, mult.

    Construction takes any iterable of (u, v) pairs and (u, v, mult) triples,
    or integer columns through `from_arrays`; both run the same validation
    and merge. When every multiplicity is 1, `mult` is a zero-stride int64
    view of ones, read as a real column is. Instances are immutable;
    equality and hashing use the size fields and the columns' values.
    """

    _ITEMS = ""  # name of the tuple view: "edges" or "arcs"
    _ORDERED = False
    _MULT = True  # whether an item may carry a multiplicity
    _SIZES = ("n",)  # the size fields that equality, hashing and repr read

    def __init__(self, n: int, items=()):
        # the raw input sits under the view's name until __post_init__ replaces it
        self.__dict__.update({"n": n, self._ITEMS: items})
        self.__post_init__()

    @classmethod
    def from_arrays(cls, n: int, u, v, mult=None):
        """Build from equal-length 1-D signed integer columns; mult defaults to ones."""
        return cls(n, _fresh_rows(u, v) if mult is None else _fresh_rows(u, v, mult))

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise DomainError(f"vertex count {n} exceeds {MAX_VERTICES}")
        raw = self.__dict__.pop(self._ITEMS)
        cols = raw.rows if isinstance(raw, _FreshRows) else _edge_columns(raw, self._MULT)
        (u, v), mult = _canonical(n, cols, ordered=self._ORDERED)
        self.__dict__.update(u=u, v=v, mult=mult)

    @cached_property
    def m(self) -> int:
        """Total edge or arc count, multiplicities included."""
        return int(self.mult.sum())

    def _triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.mult.tolist()))

    def _sizes(self) -> tuple[int, ...]:
        return tuple(self.__dict__[name] for name in self._SIZES)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = zip((self.u, self.v, self.mult), (other.u, other.v, other.mult))
        return self._sizes() == other._sizes() and all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            # u and v alone: graphs that differ only in mult may share a hash
            self.__dict__["_hash"] = hash((self._sizes(), self.u.tobytes(), self.v.tobytes()))
        return self.__dict__["_hash"]

    def __getstate__(self):
        # the cached hash is salted per process, so a copy hashes afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}={value}" for name, value in zip(self._SIZES, self._sizes()))
        return f"{type(self).__name__}({sizes}, {self._ITEMS}={getattr(self, self._ITEMS)!r})"


class _Graph(_EdgeMultiset):
    """Edges whose two ends range over the same n vertices: loops and degrees."""

    def is_loop_free(self) -> bool:
        return not (self.u == self.v).any()

    def is_simple(self) -> bool:
        return self.is_loop_free() and bool((self.mult == 1).all())

    def _degree_sum(self, ends: np.ndarray, weights: np.ndarray) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, ends, weights)
        return deg


class MultiGraph(_Graph):
    """Undirected multigraph with edge multiplicities; self-loops allowed.

    Pairs are stored with u <= v. A self-loop copy contributes 1 (not 2) to
    the degree of its vertex. This is the convention the expander gadgets
    rely on.
    """

    _ITEMS = "edges"
    # a class's own __post_init__ entry, as on the dataclass instance types
    __post_init__ = _EdgeMultiset.__post_init__

    def __init__(self, n: int, edges=()):
        super().__init__(n, edges)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (u, v, mult) triples of Python ints."""
        return self._triples()

    def degrees(self) -> list[int]:
        deg = self._degree_sum(self.u, self.mult)
        deg += self._degree_sum(self.v, self.mult * (self.u != self.v))
        return deg.tolist()

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def is_regular(self, d: int | None = None) -> bool:
        degs = self.degrees()
        if not degs:
            return True
        target = degs[0] if d is None else d
        return all(x == target for x in degs)

    def adjacency_sets(self) -> list[set[int]]:
        """Neighbor sets ignoring multiplicity; loops are dropped."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj


class Digraph(_Graph):
    """Directed multigraph; arcs are ordered pairs, loops allowed."""

    _ITEMS = "arcs"
    _ORDERED = True
    __post_init__ = _EdgeMultiset.__post_init__

    def __init__(self, n: int, arcs=()):
        super().__init__(n, arcs)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (u, v, mult) triples of Python ints."""
        return self._triples()

    def indegrees(self) -> list[int]:
        return self._degree_sum(self.v, self.mult).tolist()

    def outdegrees(self) -> list[int]:
        return self._degree_sum(self.u, self.mult).tolist()

    def has_antiparallel_pair(self) -> bool:
        if self.u.size < 2:
            return False
        keys = self.u * self.n + self.v  # sorted and distinct
        reverse = (self.v * self.n + self.u)[self.u != self.v]
        at = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
        return bool((keys[at] == reverse).any())


class BipartiteGraph(_EdgeMultiset):
    """Simple bipartite graph with a fixed (A, B) bipartition, stored and
    validated as the multigraphs are: sorted, read-only int64 columns u (A
    ids) and v (B ids), keyed over n = a_size + b_size. An end outside its
    side or a repeated pair is a DomainError, so `mult` is always ones."""

    _ITEMS = "edges"
    _ORDERED = True
    _MULT = False
    _SIZES = ("a_size", "b_size")

    def __init__(self, a_size: int, b_size: int, edges=()):
        self.__dict__.update(a_size=a_size, b_size=b_size)
        super().__init__(a_size + b_size, edges)

    @classmethod
    def from_arrays(cls, a_size: int, b_size: int, u, v):
        """Build from equal-length 1-D signed integer columns of A ids and B ids."""
        return cls(a_size, b_size, _fresh_rows(u, v))

    def __post_init__(self):
        if self.a_size < 0 or self.b_size < 0:
            raise DomainError("side sizes must be nonnegative")
        _EdgeMultiset.__post_init__(self)
        u, v = self.u, self.v
        if u.size and (u[-1] >= self.a_size or v.max() >= self.b_size or self.m > u.size):
            i = int(np.argmax((u >= self.a_size) | (v >= self.b_size) | (self.mult > 1)))
            what = "repeated" if self.mult[i] > 1 else "out of range"
            raise DomainError(f"bipartite edge ({u[i]}, {v[i]}) {what}")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (a, b) pairs of Python ints."""
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    def a_neighborhoods(self) -> list[set[int]]:
        first = np.searchsorted(self.u, np.arange(self.a_size + 1)).tolist()  # u is sorted
        return [set(self.v[lo:hi].tolist()) for lo, hi in zip(first, first[1:])]

    def b_neighborhoods(self) -> list[set[int]]:
        nb: list[set[int]] = [set() for _ in range(self.b_size)]
        for a, b in zip(self.u.tolist(), self.v.tolist()):
            nb[b].add(a)
        return nb


def _literal_vertex(lit: tuple[int, bool]) -> int:
    """Vertex of a literal on the doubled vertex set: 2x for x, 2x + 1 for ~x."""
    var, pol = lit
    return 2 * var if pol else 2 * var + 1


@dataclass(frozen=True)
class CnfFormula:
    """CNF clause list over 0-indexed variables.

    Clauses must be non-empty. Duplicate literals inside a clause are legal at
    construction time; reductions that cannot tolerate them test
    repeated_variable_clauses() and reject explicitly.
    """

    var_count: int
    clauses: tuple[tuple[Literal, ...], ...] = ()

    def __post_init__(self):
        if self.var_count < 0:
            raise DomainError("variable count must be nonnegative")
        canon = []
        for clause in self.clauses:
            if len(clause) == 0:
                raise DomainError("empty clause")
            for var, pol in clause:
                if not 0 <= var < self.var_count:
                    raise DomainError(f"variable {var} out of range")
                if not isinstance(pol, bool):
                    raise DomainError("polarity must be a bool")
            canon.append(tuple((int(var), bool(pol)) for var, pol in clause))
        object.__setattr__(self, "clauses", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.clauses)

    def is_exact_cnf(self, width: int) -> bool:
        return all(len(c) == width for c in self.clauses)

    def repeated_variable_clauses(self) -> list[int]:
        """Indices of clauses mentioning some variable more than once."""
        bad = []
        for i, clause in enumerate(self.clauses):
            vars_ = [v for v, _ in clause]
            if len(set(vars_)) != len(vars_):
                bad.append(i)
        return bad

    def occurrence_profile(self) -> list[Counter]:
        """Per-variable Counter keyed by (clause width, polarity)."""
        prof = [Counter() for _ in range(self.var_count)]
        for clause in self.clauses:
            w = len(clause)
            for var, pol in clause:
                prof[var][(w, pol)] += 1
        return prof

    def occurrence_counts(self) -> list[int]:
        """Total occurrences per variable, duplicates included."""
        return [c.total() for c in self.occurrence_profile()]


@dataclass(frozen=True)
class GapParams:
    """Exact rational gap pair with 0 <= alpha < beta <= 1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not (0 <= self.alpha < self.beta <= 1):
            raise DomainError(
                f"need 0 <= alpha < beta <= 1, got [{self.alpha}, {self.beta}]"
            )

    def map(self, f) -> "GapParams":
        """Apply the same exact transform to both endpoints."""
        return GapParams(f(self.alpha), f(self.beta))

    def __str__(self) -> str:
        return f"[{self.alpha}, {self.beta}]"


_UNIT_KINDS = ("clauses", "edges", "vertices", "arcs")


@dataclass(frozen=True)
class GapInstance:
    """An instance bundled with the gap its thresholds refer to.

    unit_kind names the count the gap fractions multiply: clause count for
    formulas, edge count for undirected graphs, vertex or arc count for
    digraph problems.
    """

    instance: object
    gap: GapParams
    unit_kind: str = "clauses"

    def __post_init__(self):
        if self.unit_kind not in _UNIT_KINDS:
            raise DomainError(f"unknown unit kind {self.unit_kind!r}")
        self.unit  # noqa: B018 - validates kind/instance agreement

    @property
    def unit(self) -> int:
        inst = self.instance
        if self.unit_kind == "clauses":
            if not isinstance(inst, CnfFormula):
                raise DomainError("clause unit on a non-formula instance")
            return inst.m
        if self.unit_kind == "edges":
            if not isinstance(inst, MultiGraph):
                raise DomainError("edge unit on a non-graph instance")
            return inst.m
        if self.unit_kind == "arcs":
            if not isinstance(inst, Digraph):
                raise DomainError("arc unit on a non-digraph instance")
            return inst.m
        if not isinstance(inst, (Digraph, MultiGraph)):
            raise DomainError("vertex unit on a non-graph instance")
        return inst.n


@dataclass(frozen=True)
class Ordering:
    """Bijection V -> {1..n}, stored as the vertex sequence by position."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise DomainError("perm is not a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.perm)

    def positions(self) -> list[int]:
        """pos[v] = 0-based position of vertex v."""
        pos = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            pos[v] = i
        return pos


@dataclass(frozen=True)
class Assignment:
    """Boolean assignment, one value per variable."""

    values: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(bool(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class VertexPartition:
    """Two-sided vertex partition; False = side A, True = side B."""

    side: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "side", tuple(bool(s) for s in self.side))

    def __len__(self) -> int:
        return len(self.side)

    def sizes(self) -> tuple[int, int]:
        b = sum(self.side)
        return len(self.side) - b, b


def cost_of_ordering(g: MultiGraph, pi: Ordering) -> int:
    """Sum over edges (with multiplicity) of |pi(u) - pi(v)|; loops cost 0."""
    if len(pi) != g.n:
        raise DimensionError(f"ordering has {len(pi)} entries, graph has {g.n}")
    pos = np.array(pi.positions(), dtype=np.int64)
    mult, dist = g.mult, np.abs(pos[g.u] - pos[g.v])
    if g.m * max(g.n - 1, 0) > _INT64_MAX:  # the products might leave int64: sum Python ints
        mult, dist = mult.astype(object), dist.astype(object)
    return int((mult * dist).sum())


def cut_size(g: MultiGraph, p: VertexPartition) -> int:
    """Multiplicity-weighted number of edges crossing the partition."""
    if len(p) != g.n:
        raise DimensionError(f"partition has {len(p)} entries, graph has {g.n}")
    side = np.array(p.side, dtype=bool)
    return int(g.mult[side[g.u] != side[g.v]].sum())


def count_satisfied(f: CnfFormula, a: Assignment) -> int:
    """Number of clauses with at least one true literal."""
    if len(a) != f.var_count:
        raise DimensionError(
            f"assignment has {len(a)} values, formula has {f.var_count} variables"
        )
    vals = a.values
    return sum(
        1 for clause in f.clauses if any(vals[v] == pol for v, pol in clause)
    )


def count_nae_satisfied(f: CnfFormula, a: Assignment) -> int:
    """Number of clauses containing both a true and a false literal."""
    if len(a) != f.var_count:
        raise DimensionError(
            f"assignment has {len(a)} values, formula has {f.var_count} variables"
        )
    vals = a.values
    count = 0
    for clause in f.clauses:
        lits = [vals[v] == pol for v, pol in clause]
        if any(lits) and not all(lits):
            count += 1
    return count


def _pair_rank(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-major rank of each pair u < v among the C(n, 2) pairs of n vertices."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _pair_mask(n: int, u: np.ndarray, v: np.ndarray, rows: tuple[int, int] | None = None) -> np.ndarray:
    """One bool per pair of n vertices, by row-major pair rank: True for the
    given pairs (each with u < v). With rows = (r0, r1) it holds only the
    pairs of rows r0..r1-1, ranked from row r0's first; every given pair
    must lie in those rows."""
    r0, r1 = rows or (0, n)
    base = _pair_rank(n, r0, r0 + 1)
    mask = np.zeros(_pair_rank(n, r1, r1 + 1) - base, dtype=bool)
    for lo in range(0, len(u), _PAIR_BLOCK):
        mask[_pair_rank(n, u[lo : lo + _PAIR_BLOCK], v[lo : lo + _PAIR_BLOCK]) - base] = True
    return mask


def _absent_pairs(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(2, k) int64 rows u, v (all ones as `_FreshRows`) of the pairs u < v
    of n vertices that are not among the given pairs, in row-major order.

    The given pairs must be distinct, each with u < v, in any order: row i
    then has (n - 1 - i) - (its count in u) absent pairs, so its u entries are
    one slice. Its v entries are the ramp i+1..n-1 less the row's given v's.
    A row that holds given pairs compresses its ramp slice by the row's clear
    bytes of the pair mask, which spans only those rows; each run of rows
    between them is one concatenation of whole ramp slices. Both write
    straight into the output, so nothing of the output's size is built.
    """
    counts = np.bincount(u, minlength=n)
    full = np.arange(n - 1, -1, -1)  # the pairs of each row
    ends = [0] + np.cumsum(full - counts).tolist()
    rows = np.empty((2, ends[-1]), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        rows[0, lo:hi] = i
    ramp = np.arange(n, dtype=np.int64)
    given = np.flatnonzero(counts).tolist()
    if given:
        firsts = [0] + np.cumsum(full).tolist()  # each row's first pair rank, then C(n, 2)
        keep = _pair_mask(n, u, v, (given[0], given[-1] + 1))
        np.logical_not(keep, out=keep)
        base = firsts[given[0]]
        for i in given:
            mask = keep[firsts[i] - base : firsts[i + 1] - base]
            np.compress(mask, ramp[i + 1 :], out=rows[1, ends[i] : ends[i + 1]])
    for lo, hi in zip([0] + [i + 1 for i in given], given + [n]):
        if lo < hi:
            np.concatenate([ramp[i + 1 :] for i in range(lo, hi)], out=rows[1, ends[lo] : ends[hi]])
    return rows


def complement(g: MultiGraph) -> MultiGraph:
    """Simple complement; input must be simple."""
    if not g.is_simple():
        raise DomainError("complement requires a simple graph")
    return MultiGraph(g.n, _FreshRows(_absent_pairs(g.n, g.u, g.v)))
