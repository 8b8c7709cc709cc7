"""Core instance types, solution types, and the evaluators everything else builds on.

All types are immutable after construction and canonicalized, so structural
equality and hashing behave, and the same inputs always serialize to the same
bytes. Evaluators are pure functions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError

# A literal is (variable index, polarity); polarity True means positive.
Literal = tuple[int, bool]


def _aggregate(pairs, *, n, ordered, allow_loops=True):
    """Canonicalize an edge/arc iterable into a sorted (u, v, mult) tuple."""
    counts: Counter = Counter()
    for item in pairs:
        if len(item) == 2:
            u, v = item
            mult = 1
        else:
            u, v, mult = item
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"endpoint out of range: ({u}, {v}) with n={n}")
        if mult < 1:
            raise DomainError(f"multiplicity must be >= 1, got {mult}")
        if u == v and not allow_loops:
            raise DomainError(f"loop at vertex {u} not allowed here")
        if not ordered and u > v:
            u, v = v, u
        counts[(u, v)] += mult
    return tuple((u, v, m) for (u, v), m in sorted(counts.items()))


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph with edge multiplicities; self-loops allowed.

    A self-loop copy contributes 1 (not 2) to the degree of its vertex.
    This is the convention the expander gadgets rely on.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("vertex count must be nonnegative")
        object.__setattr__(
            self, "edges", _aggregate(self.edges, n=self.n, ordered=False)
        )

    @property
    def m(self) -> int:
        """Total edge count, multiplicities included."""
        return sum(mult for _, _, mult in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, mult in self.edges:
            if u == v:
                deg[u] += mult
            else:
                deg[u] += mult
                deg[v] += mult
        return deg

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def is_simple(self) -> bool:
        return all(u != v and mult == 1 for u, v, mult in self.edges)

    def is_loop_free(self) -> bool:
        return all(u != v for u, v, _ in self.edges)

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

    def edge_weight(self) -> dict[tuple[int, int], int]:
        return {(u, v): mult for u, v, mult in self.edges}


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph; arcs are ordered pairs, loops allowed."""

    n: int
    arcs: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("vertex count must be nonnegative")
        object.__setattr__(
            self, "arcs", _aggregate(self.arcs, n=self.n, ordered=True)
        )

    @property
    def m(self) -> int:
        return sum(mult for _, _, mult in self.arcs)

    def indegrees(self) -> list[int]:
        deg = [0] * self.n
        for _, v, mult in self.arcs:
            deg[v] += mult
        return deg

    def outdegrees(self) -> list[int]:
        deg = [0] * self.n
        for u, _, mult in self.arcs:
            deg[u] += mult
        return deg

    def is_balanced(self) -> bool:
        return self.indegrees() == self.outdegrees()

    def is_loop_free(self) -> bool:
        return all(u != v for u, v, _ in self.arcs)

    def is_simple(self) -> bool:
        """No loops and no parallel arc copies (antiparallel pairs allowed)."""
        return all(u != v and mult == 1 for u, v, mult in self.arcs)

    def has_antiparallel_pair(self) -> bool:
        keys = {(u, v) for u, v, _ in self.arcs}
        return any((v, u) in keys for u, v in keys if u != v)


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with a fixed (A, B) bipartition."""

    a_size: int
    b_size: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.a_size < 0 or self.b_size < 0:
            raise DomainError("side sizes must be nonnegative")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.a_size and 0 <= b < self.b_size):
                raise DomainError(f"bipartite edge ({a}, {b}) out of range")
            if (a, b) in seen:
                raise DomainError(f"duplicate bipartite edge ({a}, {b})")
            seen.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def a_neighborhoods(self) -> list[set[int]]:
        nb: list[set[int]] = [set() for _ in range(self.a_size)]
        for a, b in self.edges:
            nb[a].add(b)
        return nb

    def b_neighborhoods(self) -> list[set[int]]:
        nb: list[set[int]] = [set() for _ in range(self.b_size)]
        for a, b in self.edges:
            nb[b].add(a)
        return nb


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
        counts = [0] * self.var_count
        for clause in self.clauses:
            for var, _ in clause:
                counts[var] += 1
        return counts


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

    def negated(self) -> "Assignment":
        return Assignment(tuple(not v for v in self.values))


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

    def flipped(self) -> "VertexPartition":
        return VertexPartition(tuple(not s for s in self.side))


def cost_of_ordering(g: MultiGraph, pi: Ordering) -> int:
    """Sum over edges (with multiplicity) of |pi(u) - pi(v)|; loops cost 0."""
    if len(pi) != g.n:
        raise DimensionError(f"ordering has {len(pi)} entries, graph has {g.n}")
    pos = pi.positions()
    return sum(mult * abs(pos[u] - pos[v]) for u, v, mult in g.edges)


def cut_size(g: MultiGraph, p: VertexPartition) -> int:
    """Multiplicity-weighted number of edges crossing the partition."""
    if len(p) != g.n:
        raise DimensionError(f"partition has {len(p)} entries, graph has {g.n}")
    side = p.side
    return sum(mult for u, v, mult in g.edges if side[u] != side[v])


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


def complement(g: MultiGraph) -> MultiGraph:
    """Simple complement; input must be simple."""
    if not g.is_simple():
        raise DomainError("complement requires a simple graph")
    present = {(u, v) for u, v, _ in g.edges}
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in present
    ]
    return MultiGraph(g.n, tuple(edges))
