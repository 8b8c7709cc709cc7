"""Gap-preserving reductions from exact-3-CNF down to simple MaxCut.

Each reduction returns (output GapInstance, lifter). The lifter maps any
feasible witness of the output instance back to a witness of the input whose
value meets the reduction's exact correspondence; applied to an optimal
output witness it recovers an optimal input witness.

Gap bookkeeping is exact rational arithmetic throughout:

    E3SAT [a,b] -> NAE4SAT [a,b] -> NAE3SAT [(1+a)/2,(1+b)/2]
        -> multigraph MaxCut [(3+2a)/6,(3+2b)/6] -> MaxCut [(2+a)/3,(2+b)/3]

which composes to [(16+a)/18, (16+b)/18] end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, DomainError
from .model import (
    Assignment,
    CnfFormula,
    GapInstance,
    MultiGraph,
    VertexPartition,
    _literal_vertex,
)

def e3sat_to_nae4sat(gi: GapInstance):
    """Append one fresh variable z to every clause; gap is unchanged.

    Lifting: NAE satisfaction is symmetric under global negation, so
    normalize z to false by negating if needed, then drop z.
    """
    f: CnfFormula = gi.instance
    if not f.is_exact_cnf(3):
        raise DomainError("e3sat_to_nae4sat requires an exact-3-CNF input")
    z = f.var_count
    out = CnfFormula(
        f.var_count + 1,
        tuple(clause + ((z, True),) for clause in f.clauses),
    )
    out_gi = GapInstance(out, gi.gap, "clauses")

    def lift(a: Assignment) -> Assignment:
        if len(a) != out.var_count:
            raise DimensionError("assignment does not match the NAE4 instance")
        vals = a.values
        if vals[z]:
            vals = tuple(not v for v in vals)
        return Assignment(vals[:z])

    return out_gi, lift


def nae4sat_to_nae3sat(gi: GapInstance):
    """Split every 4-clause in two with a fresh pivot variable.

    Clause l1|l2|l3|l4 becomes (l1|l2|z_i) and (l3|l4|~z_i); exactly one of
    the pair is NAE-satisfied when the original is not, both when it is, so
    the optimum shifts k -> m + k and the gap maps to [(1+a)/2, (1+b)/2].
    Lifting restricts to the original variables: whenever both halves are
    NAE-satisfied, the restriction NAE-satisfies the original clause.
    """
    f: CnfFormula = gi.instance
    if not f.is_exact_cnf(4):
        raise DomainError("nae4sat_to_nae3sat requires an exact-4-CNF input")
    n = f.var_count
    clauses = []
    for i, (l1, l2, l3, l4) in enumerate(f.clauses):
        zi = n + i
        clauses.append((l1, l2, (zi, True)))
        clauses.append((l3, l4, (zi, False)))
    out = CnfFormula(n + f.m, tuple(clauses))
    gap = gi.gap.map(lambda x: (1 + x) / 2)
    out_gi = GapInstance(out, gap, "clauses")

    def lift(a: Assignment) -> Assignment:
        if len(a) != out.var_count:
            raise DimensionError("assignment does not match the NAE3 instance")
        return Assignment(a.values[:n])

    return out_gi, lift


def nae3sat_to_multicut(gi: GapInstance):
    """NAE-3-SAT to MaxCut on a multigraph.

    Vertices 2i / 2i+1 carry literal x_i / ~x_i, joined by n_i parallel edges
    (n_i = occurrences of x_i); every clause adds a triangle on its literal
    vertices. maxcut = 3m + 2*maxNAE, gap -> [(3+2a)/6, (3+2b)/6].
    """
    f: CnfFormula = gi.instance
    if not f.is_exact_cnf(3):
        raise DomainError("nae3sat_to_multicut requires an exact-3-CNF input")
    if f.repeated_variable_clauses():
        raise DomainError(
            "clause with a repeated variable: the clause triangle would degenerate"
        )
    n = f.var_count
    edges = []
    for var, count in enumerate(f.occurrence_counts()):
        if count:
            edges.append((2 * var, 2 * var + 1, count))
    for clause in f.clauses:
        a, b, c = (_literal_vertex(lit) for lit in clause)
        edges.append((a, b, 1))
        edges.append((b, c, 1))
        edges.append((a, c, 1))
    out = MultiGraph(2 * n, tuple(edges))
    gap = gi.gap.map(lambda x: (3 + 2 * x) / 6)
    out_gi = GapInstance(out, gap, "edges")

    def lift(p: VertexPartition) -> Assignment:
        if len(p) != out.n:
            raise DimensionError("partition does not match the cut instance")
        adj = [[] for _ in range(out.n)]
        for u, v, mult in edges:  # no loops: a clause repeats no variable
            adj[u].append((v, mult))
            adj[v].append((u, mult))
        side = list(p.side)

        def gain(w: int) -> int:
            # the cut's change when w flips: its same-side edges start to
            # cross, its crossing edges stop
            return sum(mult if side[x] == side[w] else -mult for x, mult in adj[w])

        # exchange step: split every literal pair without decreasing the cut,
        # flipping the negative literal only on a strictly larger gain
        for pos in range(0, out.n, 2):
            if side[pos] == side[pos + 1]:
                w = pos + 1 if gain(pos + 1) > gain(pos) else pos
                side[w] = not side[w]
        return Assignment(tuple(side[0::2]))

    return out_gi, lift


def multicut_to_simplecut(gi: GapInstance):
    """Replace every edge copy uv by a path u - w_e - z_e - v.

    The output is simple; maxcut = 2m + maxcut(input), gap -> [(2+a)/3, (2+b)/3].
    Lifting restricts the cut to the original vertices.
    """
    g: MultiGraph = gi.instance
    if not g.is_loop_free():
        raise DomainError("multicut_to_simplecut requires a loop-free multigraph")
    n = g.n
    edges = []
    nxt = n
    for u, v, mult in g.edges:
        for _ in range(mult):
            w, z = nxt, nxt + 1
            nxt += 2
            edges.append((u, w, 1))
            edges.append((w, z, 1))
            edges.append((z, v, 1))
    out = MultiGraph(nxt, tuple(edges))
    gap = gi.gap.map(lambda x: (2 + x) / 3)
    out_gi = GapInstance(out, gap, "edges")

    def lift(p: VertexPartition) -> VertexPartition:
        if len(p) != out.n:
            raise DimensionError("partition does not match the simple-cut instance")
        return VertexPartition(p.side[:n])

    return out_gi, lift
