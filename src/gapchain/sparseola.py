"""Bounded-degree arrangement instances from gap minimum bisection.

The transformation plants the source graph next to a stack of Z expander
blocks (one global expander across all of H plus one per block), wired to the
source by round-robin bipartite edges. In paper mode the parameters follow
the full-scale recurrences and blow up quickly; desk mode runs the identical
machinery with small user-supplied Z and phi so the exact oracles can close
the loop end to end. Structural conclusions that need asymptotic slack are
reported on desk instances, never asserted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .denseola import _blocks_of
from .errors import DimensionError, DomainError, ParseError
from .expander import build_expander
from .model import GapParams, MultiGraph, Ordering, VertexPartition

PAPER = "paper"
DESK = "desk"


@dataclass(frozen=True)
class SparseParams:
    """Parameters steering the transformation.

    Achieved expander degrees (d_h, d_hi) are filled in by build_t; p_hi is
    filled there too when it follows the recurrence on achieved degrees.
    """

    alpha: Fraction
    beta: Fraction
    d_g: int
    gamma: Fraction
    phi: Fraction
    z: int
    delta_hg: int
    p_h: Fraction
    p_hi: tuple[Fraction, ...] | None = None
    d_h: int | None = None
    d_hi: tuple[int, ...] | None = None

    def degree_bound(self) -> int:
        """Closed-form max-degree bound for built layouts."""
        if self.d_h is None or self.d_hi is None:
            raise DomainError("degree bound needs achieved expander degrees")
        return self.d_g + self.z + self.d_h + max(self.d_hi) + self.delta_hg


def _override_fraction(key: str, value) -> Fraction:
    """A desk override as an exact fraction; an unconvertible value is a parse
    error naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
        raise ParseError(f"overrides.{key} must be a number or a 'p/q' string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ParseError(f"overrides.{key}: bad fraction {value!r}; use integers or 'p/q'") from None


def derive_params(
    gap: GapParams,
    d_g: int,
    mode: str = PAPER,
    overrides: dict | None = None,
) -> SparseParams:
    """Fix gamma, phi, Z, Delta_HG and p_H.

    gamma is (beta - alpha)/4 in both modes. Paper mode follows the
    full-scale derivation, which requires d_g > 4/(beta - alpha). Desk mode
    takes Z and phi (and optionally p_h, p_hi) from `overrides` and skips the
    magnitude requirements; the formula-consistency checks stay available
    through inequality_report.
    """
    overrides = dict(overrides or {})
    alpha, beta = gap.alpha, gap.beta
    gamma = (beta - alpha) / 4
    if mode == PAPER:
        if overrides:
            raise DomainError("paper mode takes no overrides")
        if d_g < 2 or d_g <= 4 / (beta - alpha):
            raise DomainError(
                f"paper mode needs d_g > 4/(beta-alpha) = {4 / (beta - alpha)} "
                f"and d_g >= 2, got {d_g}"
            )
        phi = gamma / (3 * d_g)
        z = math.ceil(2 * (2 * alpha + 1) / ((beta - alpha) * phi))
        p_hi = None
    elif mode == DESK:
        if "z" not in overrides or "phi" not in overrides:
            raise DomainError("desk mode needs overrides for z and phi")
        z = overrides.pop("z")
        if isinstance(z, bool) or not isinstance(z, int):
            raise ParseError(f"overrides.z must be an integer, got {z!r}")
        phi = _override_fraction("phi", overrides.pop("phi"))
        if z < 1 or not (0 < phi <= 1):
            raise DomainError("desk mode needs z >= 1 and 0 < phi <= 1")
    else:
        raise DomainError(f"unknown mode {mode!r}")
    delta_hg = math.ceil(1 / phi)
    p_h = Fraction(3 * delta_hg + 3 * z + d_g + 1)
    if mode == DESK:
        p_h = _override_fraction("p_h", overrides.pop("p_h", p_h))
        raw_hi = overrides.pop("p_hi", None)
        if raw_hi is None:
            p_hi = None
        elif isinstance(raw_hi, (list, tuple)):
            p_hi = tuple(_override_fraction(f"p_hi[{i}]", x) for i, x in enumerate(raw_hi))
            if len(p_hi) != z:
                raise DomainError(f"p_hi needs {z} entries, got {len(p_hi)}")
        else:
            p_hi = (_override_fraction("p_hi", raw_hi),) * z
        if overrides:
            raise DomainError(f"unknown overrides: {sorted(overrides)}")
    return SparseParams(
        alpha=alpha,
        beta=beta,
        d_g=d_g,
        gamma=gamma,
        phi=phi,
        z=z,
        delta_hg=delta_hg,
        p_h=p_h,
        p_hi=p_hi,
    )


def inequality_report(params: SparseParams) -> dict[str, bool | None]:
    """Named parameter requirements: True/False, or None when not yet decidable.

    Desk runs report violations instead of refusing to build.
    """
    p = params
    report: dict[str, bool | None] = {
        "d_g_large_enough": Fraction(p.d_g) > 4 / (p.beta - p.alpha),
        "gamma_is_3_phi_d_g": p.gamma == 3 * p.phi * p.d_g,
        "z_phi_at_least_2": p.z * p.phi >= 2,
        "gap_budget_eq2": 2 * (2 * p.alpha + 1) <= (p.beta - p.alpha) * p.z * p.phi,
        "p_h_exceeds_block_degrees": p.p_h > 3 * p.delta_hg + 3 * p.z + p.d_g,
        "delta_hg_matches_phi": p.delta_hg == math.ceil(1 / p.phi),
    }
    if p.p_hi is None or p.d_h is None or p.d_hi is None:
        report["p_hi_recurrence"] = None
    else:
        ok = True
        for i in range(p.z):
            nxt = p.d_hi[i + 1] if i + 1 < p.z else 0
            if not p.p_hi[i] > nxt + 4 * p.d_h + 2 * p.delta_hg:
                ok = False
        report["p_hi_recurrence"] = ok
    return report


@dataclass(frozen=True)
class SparseLayout:
    """A built instance: source graph plus the expander stack.

    h_graph is H on its own: its vertex i is vertex n + i of graph.
    """

    graph: MultiGraph
    h_graph: MultiGraph
    g_vertices: range
    h_block_ranges: tuple[range, ...]
    params: SparseParams

    @property
    def h_vertices(self) -> range:
        return range(self.g_vertices.stop, self.graph.n)

    @property
    def block_size(self) -> int:
        return len(self.h_block_ranges[0])


def build_t(g: MultiGraph, params: SparseParams, seed: int) -> SparseLayout:
    """Assemble T(G): source copy, global expander on H, per-block expanders,
    and one bipartite edge from every source vertex into every block.

    Per-block expanders are built in decreasing block order so the p_Hi
    recurrence can consume the achieved degree of the next block. The union
    is a multigraph: coinciding copies accumulate multiplicity.
    """
    if not g.is_simple():
        raise DomainError("build_t requires a simple source graph")
    if g.n == 0 or g.n % 2 != 0:
        raise DomainError("bisection sources need a positive even vertex count")
    if not g.is_regular(params.d_g):
        raise DomainError(f"source is not {params.d_g}-regular")
    n = g.n
    z = params.z
    bsize = math.ceil(params.phi * n)
    master = random.Random(seed)
    seed_h = master.randrange(2**32)
    block_seeds = [master.randrange(2**32) for _ in range(z)]

    h_global, h_spec = build_expander(z * bsize, params.p_h, seed_h)
    d_h = h_spec.d

    d_hi: list[int | None] = [None] * z
    p_hi_used: list[Fraction] = [Fraction(0)] * z
    block_graphs: list[MultiGraph | None] = [None] * z
    for i in range(z - 1, -1, -1):
        if params.p_hi is not None:
            p_val = params.p_hi[i]
        else:
            nxt = d_hi[i + 1] if i + 1 < z else 0
            p_val = Fraction(nxt + 4 * d_h + 2 * params.delta_hg + 1)
        graph_i, spec_i = build_expander(bsize, p_val, block_seeds[i])
        d_hi[i] = spec_i.d
        p_hi_used[i] = p_val
        block_graphs[i] = graph_i

    # H is the global expander plus each block's shifted to its block; T(G)
    # is the source, H shifted past it, and the joins (source vertex j to the
    # (j mod bsize)th vertex of every block)
    parts = [(h_global.u, h_global.v, h_global.mult)]
    parts += [(i * bsize + b.u, i * bsize + b.v, b.mult) for i, b in enumerate(block_graphs)]
    h_graph = MultiGraph.from_arrays(z * bsize, *map(np.concatenate, zip(*parts)))
    sources = np.tile(np.arange(n), z)
    joins = n + np.repeat(np.arange(z) * bsize, n) + sources % bsize
    graph = MultiGraph.from_arrays(
        n + z * bsize,
        np.concatenate((g.u, n + h_graph.u, sources)),
        np.concatenate((g.v, n + h_graph.v, joins)),
        np.concatenate((g.mult, h_graph.mult, np.ones(z * n, dtype=np.int64))),
    )
    built = replace(params, p_hi=tuple(p_hi_used), d_h=d_h, d_hi=tuple(d_hi))
    blocks = tuple(range(n + i * bsize, n + (i + 1) * bsize) for i in range(z))
    return SparseLayout(
        graph=graph, h_graph=h_graph, g_vertices=range(n), h_block_ranges=blocks, params=built
    )


def compute_budget(layout: SparseLayout, ola_of_h: int) -> int:
    """Arrangement budget: OLA(H) + alpha*m*(Z*ceil(phi n)+n) + m*n/2
    + ((n/2+1)(n/2)Z + n*sum_i i*ceil(phi n)). A non-integral alpha*m is a
    DomainError.
    """
    p = layout.params
    n = len(layout.g_vertices)
    z = p.z
    bsize = layout.block_size
    m = p.d_g * n // 2
    alpha_m = p.alpha * m
    if alpha_m.denominator != 1:
        raise DomainError(f"alpha*m = {alpha_m} is not integral")
    return (
        ola_of_h
        + int(alpha_m) * (z * bsize + n)
        + m * n // 2
        + ((n // 2 + 1) * (n // 2) * z + n * sum(i * bsize for i in range(1, z + 1)))
    )


def ordering_from_bisection(
    layout: SparseLayout, p: VertexPartition, pi_h: Ordering
) -> Ordering:
    """Side A ascending, then H in the supplied order, then side B ascending.

    pi_h orders H by local index (0 .. Z*ceil(phi n) - 1).
    """
    n = len(layout.g_vertices)
    if len(p) != n:
        raise DimensionError("partition does not match the source vertices")
    sizes = p.sizes()
    if sizes[0] != sizes[1]:
        raise DomainError(f"partition is unbalanced: {sizes}")
    h_count = layout.graph.n - n
    if len(pi_h) != h_count:
        raise DimensionError("pi_h does not match the H vertex count")
    a = [v for v in range(n) if not p.side[v]]
    b = [v for v in range(n) if p.side[v]]
    return Ordering(tuple(a + [n + i for i in pi_h.perm] + b))


def _adjacent_blocks_start(pos, x: list, y: list) -> int:
    """Position of X's first vertex, after checking that X and Y are disjoint,
    nonempty and each consecutive under the positions pos, and that X
    immediately precedes Y."""
    if not x or not y or set(x) & set(y):
        raise DomainError("swap blocks must be disjoint and nonempty")
    xpos = sorted(pos[v] for v in x)
    ypos = sorted(pos[v] for v in y)
    if xpos != list(range(xpos[0], xpos[0] + len(x))):
        raise DomainError("X is not consecutive in the ordering")
    if ypos != list(range(ypos[0], ypos[0] + len(y))):
        raise DomainError("Y is not consecutive in the ordering")
    if xpos[-1] + 1 != ypos[0]:
        raise DomainError("X does not immediately precede Y")
    return xpos[0]


def swap_bounds(g: MultiGraph, pi: Ordering, x, y):
    """Degree statistics feeding the swapping condition p > P_X + 2 P_C + P_Y.

    X and Y must be consecutive in pi with X immediately preceding Y. P_X
    bounds X-degrees into L(X), P_C the degree of the induced (X, Y) bipartite
    graph, P_Y the Y-degrees into R(Y); p is the exact average degree of an
    X-vertex into R(Y).
    """
    x = list(x)
    y = list(y)
    pos = pi.positions()
    left_limit = _adjacent_blocks_start(pos, x, y)
    right_limit = left_limit + len(x) + len(y) - 1
    xset, yset = set(x), set(y)
    into_left = {v: 0 for v in x}
    into_right_y = {v: 0 for v in y}
    cross = {v: 0 for v in list(x) + list(y)}
    x_to_r = 0
    for u, v, mult in g.edges:
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            if a in xset and pos[b] < left_limit:
                into_left[a] += mult
            if a in yset and pos[b] > right_limit:
                into_right_y[a] += mult
            if a in xset and b in yset:
                cross[a] += mult
                cross[b] += mult
            if a in xset and pos[b] > right_limit:
                x_to_r += mult
    p_x = max(into_left.values())
    p_c = max(cross.values())
    p_y = max(into_right_y.values())
    p_avg = Fraction(x_to_r, len(x))
    return p_x, p_c, p_y, p_avg


def apply_swap(pi: Ordering, x, y) -> Ordering:
    """Exchange the block positions of X and Y, preserving internal orders."""
    x = list(x)
    y = list(y)
    start = _adjacent_blocks_start(pi.positions(), x, y)
    perm = list(pi.perm)
    x_block = perm[start : start + len(x)]
    y_block = perm[start + len(x) : start + len(x) + len(y)]
    perm[start : start + len(x) + len(y)] = y_block + x_block
    return Ordering(tuple(perm))


def bisection_from_ordering(layout: SparseLayout, pi: Ordering) -> VertexPartition:
    """Read a balanced source partition off an arbitrary ordering.

    If H is consecutive, split there. Otherwise apply cost-decreasing swaps
    (the swap-improvement move on the outermost H block and its inner block)
    while the condition triggers; if H still is not consecutive, split at the
    median H position. Finally rebalance by moving lowest-id vertices from
    the larger side.
    """
    n = len(layout.g_vertices)
    if len(pi) != layout.graph.n:
        raise DimensionError("ordering does not match the layout")
    h_set = set(layout.h_vertices)
    perm = list(pi.perm)

    def try_normalize(perm: list[int]) -> list[int]:
        while True:
            blocks = _blocks_of(h_set, perm)
            if len(blocks) <= 1:
                return perm
            moved = False
            for reverse in (False, True):
                view = list(reversed(perm)) if reverse else perm
                blocks_v = _blocks_of(h_set, view)
                x = blocks_v[0]
                if 2 * len(x) > len(h_set):
                    continue
                pos = {v: i for i, v in enumerate(view)}
                next_start = pos[blocks_v[1][0]]
                inner = view[pos[x[-1]] + 1 : next_start]
                cur = Ordering(tuple(view))
                p_x, p_c, p_y, p_avg = swap_bounds(layout.graph, cur, x, inner)
                if p_avg > p_x + 2 * p_c + p_y:
                    swapped = apply_swap(cur, x, inner)
                    perm = (
                        list(reversed(swapped.perm)) if reverse else list(swapped.perm)
                    )
                    moved = True
                    break
            if not moved:
                return perm

    perm = try_normalize(perm)
    blocks = _blocks_of(h_set, perm)
    pos = {v: i for i, v in enumerate(perm)}
    if len(blocks) == 1:
        split = pos[blocks[0][0]]
    else:
        h_positions = sorted(pos[v] for v in h_set)
        split = h_positions[len(h_positions) // 2]
    side = [pos[v] > split for v in range(n)]
    a = [v for v in range(n) if not side[v]]
    b = [v for v in range(n) if side[v]]
    while len(a) > len(b):
        mv = a.pop(0)
        side[mv] = True
        b.append(mv)
    while len(b) > len(a):
        mv = min(b)
        b.remove(mv)
        side[mv] = False
        a.append(mv)
    return VertexPartition(tuple(side))
