"""Occurrence-bounded SAT via expander consistency gadgets, then feedback
vertex set, feedback arc set, arc subdivision, blow-up, and the randomized
completion to a tournament with its decision thresholds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .expander import build_expander_family
from .model import CnfFormula, Digraph, GapInstance, GapParams, _absent_pairs, _literal_vertex


def audit_ssat_profile(f: CnfFormula) -> int:
    """Verify the occurrence profile and return its d.

    Every variable: exactly one positive and one negative occurrence in
    3-clauses, exactly d positive and d negative occurrences in 2-clauses
    (same d for all variables), no other clause widths, and no 2-clause on a
    repeated variable. Raises DomainError otherwise.
    """
    if f.var_count == 0:
        raise DomainError("profile audit needs at least one variable")
    for i, clause in enumerate(f.clauses):
        if len(clause) not in (2, 3):
            raise DomainError(f"clause {i} has width {len(clause)}; only 2 and 3 allowed")
        if len(clause) == 2 and clause[0][0] == clause[1][0] and clause[0][1] == clause[1][1]:
            raise DomainError(f"2-clause {i} repeats a literal")
    prof = f.occurrence_profile()
    d = None
    for var, counts in enumerate(prof):
        if counts[(3, True)] != 1 or counts[(3, False)] != 1:
            raise DomainError(
                f"variable {var} has 3-clause profile "
                f"({counts[(3, True)]}+, {counts[(3, False)]}-); expected (1+, 1-)"
            )
        pos2, neg2 = counts[(2, True)], counts[(2, False)]
        if pos2 != neg2:
            raise DomainError(
                f"variable {var} has unbalanced 2-clause occurrences ({pos2}+, {neg2}-)"
            )
        if d is None:
            d = pos2
        elif pos2 != d:
            raise DomainError(
                f"variable {var} has {pos2} 2-clause occurrences per sign, others have {d}"
            )
    return d


def nae3_to_ssat(gi: GapInstance, seed: int) -> tuple[GapInstance, int]:
    """Per-variable expander consistency gadgets; NAE semantics become plain SAT.

    Each variable is split into one fresh variable per occurrence. Every
    non-loop gadget edge ij yields the pair (~x_i | x_j), (x_i | ~x_j); every
    loop copy yields the trivial clause (~x_i | x_i). Every original 3-clause
    C yields C' (renamed) and C'' (all polarities reversed). All gadgets share
    one expander degree d, certified for Cheeger bound 2, which is returned
    with the instance. The gap maps [a, 1] -> [(1+a+3d)/(2+3d), 1].
    """
    f: CnfFormula = gi.instance
    if not f.is_exact_cnf(3):
        raise DomainError("nae3_to_ssat requires an exact-3-CNF input")
    if gi.gap.beta != 1:
        raise DomainError("nae3_to_ssat requires a gap of the form [alpha, 1]")
    occ = f.occurrence_counts()
    used_vars = [v for v in range(f.var_count) if occ[v] > 0]
    if not used_vars:
        raise DomainError("formula mentions no variables")
    gadgets, d = build_expander_family([occ[v] for v in used_vars], 2, seed)
    gadget_of = {v: g for v, (g, _spec) in zip(used_vars, gadgets)}

    base = {}
    nxt = 0
    for v in used_vars:
        base[v] = nxt
        nxt += occ[v]
    out_var_count = nxt

    clauses = []
    for v in used_vars:
        for i, j, mult in gadget_of[v].edges:
            xi, xj = base[v] + i, base[v] + j
            for _ in range(mult):
                if i == j:
                    clauses.append(((xi, False), (xi, True)))
                else:
                    clauses.append(((xi, False), (xj, True)))
                    clauses.append(((xi, True), (xj, False)))
    # scanning clauses in order, the c-th occurrence of variable v becomes
    # fresh variable base[v] + c
    cursor = dict(base)
    for clause in f.clauses:
        renamed = []
        for v, pol in clause:
            renamed.append((cursor[v], pol))
            cursor[v] += 1
        renamed = tuple(renamed)
        clauses.append(renamed)
        clauses.append(tuple((v, not pol) for v, pol in renamed))

    out = CnfFormula(out_var_count, tuple(clauses))
    gap = GapParams((1 + gi.gap.alpha + 3 * d) / (2 + 3 * d), 1)
    return GapInstance(out, gap, "clauses"), d


def ssat_to_fvs(gi: GapInstance) -> GapInstance:
    """Occurrence-bounded SAT to feedback vertex set on a balanced regular
    directed multigraph.

    Vertices 2x / 2x+1 mean "x true" / "x false". Each variable gets a
    2-cycle, each 2-clause a 2-cycle between its literal vertices (trivial
    clauses stack parallel copies), each 3-clause a 3-cycle oriented by
    ascending literal position. indeg = outdeg = d+2 everywhere; the gap
    becomes [1/2, (4-a)/6] counted over vertices.
    """
    f: CnfFormula = gi.instance
    if gi.gap.beta != 1:
        raise DomainError("ssat_to_fvs requires a gap of the form [alpha, 1]")
    audit_ssat_profile(f)
    arcs = []
    for v in range(f.var_count):
        arcs.append((2 * v, 2 * v + 1, 1))
        arcs.append((2 * v + 1, 2 * v, 1))
    for clause in f.clauses:
        vs = [_literal_vertex(lit) for lit in clause]
        if len(clause) == 2:
            arcs.append((vs[0], vs[1], 1))
            arcs.append((vs[1], vs[0], 1))
        else:
            arcs.append((vs[0], vs[1], 1))
            arcs.append((vs[1], vs[2], 1))
            arcs.append((vs[2], vs[0], 1))
    out = Digraph(2 * f.var_count, tuple(arcs))
    gap = GapParams(Fraction(1, 2), (4 - gi.gap.alpha) / 6)
    return GapInstance(out, gap, "vertices")


def fvs_to_fas(gi: GapInstance) -> GapInstance:
    """Vertex split u -> (u-, u+): feedback vertex sets become feedback arc
    sets of the per-vertex arcs, with equal optima. Needs a balanced input
    with indeg = outdeg = r everywhere; the gap scales by 1/(r+1) as the unit
    moves from vertices to arcs.
    """
    d: Digraph = gi.instance
    if not d.is_loop_free():
        raise DomainError("fvs_to_fas requires a loop-free input")
    indeg, outdeg = d.indegrees(), d.outdegrees()
    if indeg != outdeg:
        raise DomainError("fvs_to_fas requires a balanced digraph")
    if d.n == 0:
        raise DomainError("fvs_to_fas needs at least one vertex")
    r = indeg[0]
    if any(x != r for x in indeg):
        raise DomainError("fvs_to_fas requires indeg = outdeg = r for every vertex")
    arcs = []
    for u in range(d.n):
        arcs.append((2 * u, 2 * u + 1, 1))  # (u-, u+)
    for u, v, mult in d.arcs:
        arcs.append((2 * u + 1, 2 * v, mult))  # (u+, v-)
    out = Digraph(2 * d.n, tuple(arcs))
    gap = gi.gap.map(lambda x: x / (r + 1))
    return GapInstance(out, gap, "arcs")


def subdivide_arcs(d: Digraph) -> Digraph:
    """Subdivide every arc copy once; midpoints are fresh vertices.

    Doubles the arc count without changing the minimum feedback arc set; the
    output is simple with no 2-cycles. Loops are rejected: their subdivision
    would be a 2-cycle, so simplicity could not be promised.
    """
    if not d.is_loop_free():
        raise DomainError("subdivide_arcs requires a loop-free digraph")
    arcs = []
    nxt = d.n
    for u, v, mult in d.arcs:
        for _ in range(mult):
            w = nxt
            nxt += 1
            arcs.append((u, w, 1))
            arcs.append((w, v, 1))
    return Digraph(nxt, tuple(arcs))


def blowup(d: Digraph, t: int) -> Digraph:
    """t twin copies per vertex; arcs lifted between blocks, none inside.

    fas scales as t^2 * fas(d)."""
    if t < 1:
        raise DomainError(f"blow-up factor must be >= 1, got {t}")
    if not d.is_simple():
        raise DomainError("blowup requires a simple digraph")
    # arc (u, v) becomes every (u*t + i, v*t + j), i and j below t
    copies, shape = np.arange(t), (len(d.u), t, t)
    u = np.broadcast_to(d.u[:, None, None] * t + copies[:, None], shape)
    v = np.broadcast_to(d.v[:, None, None] * t + copies, shape)
    return Digraph.from_arrays(d.n * t, u.ravel(), v.ravel())


def _coins(rng: random.Random, k: int) -> np.ndarray:
    """[rng.random() < 0.5 for each of k draws] as a bool array, leaving rng in
    the same state as those draws.

    random() is ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53 for the next two 32-bit
    words w0, w1, so it is below 1/2 exactly when w0 < 2^31. getrandbits(64k)
    hands out the same 2k words, least significant first.
    """
    words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
    return np.frombuffer(words, dtype="<u4")[0::2] < 2**31


def complete_to_tournament(d: Digraph, seed: int) -> tuple[Digraph, int]:
    """Orient every missing pair independently and uniformly at random.

    Deterministic per seed. Returns the tournament and |E(R)|, the number of
    randomly oriented arcs.
    """
    if not d.is_simple():
        raise DomainError("complete_to_tournament requires a simple digraph")
    if d.has_antiparallel_pair():
        raise DomainError("complete_to_tournament requires no antiparallel pairs")
    iu, iv = _absent_pairs(d.n, np.minimum(d.u, d.v), np.maximum(d.u, d.v))
    # one coin per missing pair, in row-major pair order
    forward = _coins(random.Random(seed), iu.size)
    out = Digraph.from_arrays(
        d.n,
        np.concatenate((d.u, np.where(forward, iu, iv))),
        np.concatenate((d.v, np.where(forward, iv, iu))),
    )
    return out, iu.size


def tournament_thresholds(
    gap: GapParams, t: int, core_arcs: int, random_arcs: int
) -> tuple[Fraction, Fraction]:
    """(low, high) decision thresholds for the completed tournament:
    low = (2a+b)/3 * t^2 m + |R|/2, high = (a+2b)/3 * t^2 m + |R|/2."""
    a, b = gap.alpha, gap.beta
    scale = t**2 * core_arcs
    half_r = Fraction(random_arcs, 2)
    return (2 * a + b) / 3 * scale + half_r, (a + 2 * b) / 3 * scale + half_r
