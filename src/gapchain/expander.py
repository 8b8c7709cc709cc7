"""Certified expander construction from random regular multigraphs.

Degrees follow the loop-counts-once convention: a matched stub pair landing on
a single vertex is stored as two loop copies, so every sampled graph is
exactly d-regular. Certification is exact (subset enumeration) up to 20
vertices and spectral (h >= (d - lambda_2)/2) above that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitops import cut_weight_table, popcount_table
from .errors import CapExceededError, ConstructionError, DomainError
from .model import MultiGraph

EXACT_CERT_MAX_N = 20
TRIES_PER_DEGREE = 32  # samples drawn at one (n, d) before the degree goes up
DEGREE_CEILING = 64


@dataclass(frozen=True)
class ExpanderSpec:
    """Certificate attached to a constructed expander."""

    n: int
    p: Fraction
    d: int
    certified_h: object  # Fraction, or math.inf for the single-vertex case
    certificate_kind: str  # "exact" | "spectral"


def cheeger_exact(g: MultiGraph) -> object:
    """min over nonempty X with |X| <= n/2 of |delta(X)| / |X|, exactly.

    Returns a Fraction; for n = 1 the set family is empty and the value is
    defined as +infinity. Refuses graphs above EXACT_CERT_MAX_N vertices.
    """
    if g.n > EXACT_CERT_MAX_N:
        raise CapExceededError(f"cheeger_exact: n={g.n} exceeds cap {EXACT_CERT_MAX_N}")
    n = g.n
    if n <= 1:
        return math.inf
    # a size-k set holding vertex 0 has the cut of its complement, of size n - k
    table = cut_weight_table(g)
    # in the table's own type: mixed types take np.minimum.at off its fast path
    mins = np.full(n + 1, np.iinfo(table.dtype).max, dtype=table.dtype)
    np.minimum.at(mins, popcount_table(n - 1), table)
    return min(Fraction(int(min(mins[k], mins[n - k])), k) for k in range(1, n // 2 + 1))


def spectral_cheeger_bound(g: MultiGraph, d: int) -> Fraction | float:
    """Lower bound h >= (d - lambda_2)/2 from the adjacency spectrum.

    Loop copies sit on the diagonal, keeping every row sum equal to d. With
    fewer than two vertices there is no lambda_2, and the bound is +infinity,
    as in cheeger_exact.
    """
    n = g.n
    if n <= 1:
        return math.inf
    a = np.zeros((n, n), dtype=np.float64)
    # pairs are distinct, so each assignment places one multiplicity; a loop lands twice on one cell
    a[g.u, g.v] = g.mult
    a[g.v, g.u] = g.mult
    eigs = np.linalg.eigvalsh(a)
    return Fraction(float(d) - float(eigs[-2])) / 2


def sample_regular_multigraph(n: int, d: int, rng: random.Random) -> MultiGraph:
    """Uniform stub-matching sample of a d-regular multigraph.

    A stub pair at a single vertex becomes two loop copies: each copy adds 1
    to the degree, so regularity is exact under the loop convention.
    """
    if (d * n) % 2 != 0:
        raise DomainError(f"stub matching needs d*n even, got d={d}, n={n}")
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    u, v = np.array(stubs, dtype=np.int64).reshape(-1, 2).T
    return MultiGraph.from_arrays(n, u, v, np.where(u == v, 2, 1))


def _degrees(p: Fraction, n: int) -> range:
    """The degrees to sample, in order: ceil(2p) + 2 up to DEGREE_CEILING,
    skipping each d with d*n odd."""
    d = math.ceil(2 * p) + 2
    return range(d + d * n % 2, DEGREE_CEILING + 1, 1 + n % 2)


def _certify(g: MultiGraph, d: int, p: Fraction):
    """Returns (ok, certified_h, kind)."""
    if g.n == 1:
        # no nonempty X with |X| <= 1/2 exists; vacuously certified at p
        return True, p, "exact"
    if g.n <= EXACT_CERT_MAX_N:
        h = cheeger_exact(g)
        return h >= p, h, "exact"
    bound = spectral_cheeger_bound(g, d)
    return bound >= p, bound, "spectral"


def _sample_certified(n: int, d: int, p: Fraction, rng: random.Random):
    """Draw up to TRIES_PER_DEGREE d-regular samples on n vertices.

    Returns ((graph, spec) for the first sample certified at p, or None, and
    the best certified bound seen).
    """
    best = None
    for _ in range(TRIES_PER_DEGREE):
        g = sample_regular_multigraph(n, d, rng)
        ok, h, kind = _certify(g, d, p)
        if best is None or h > best:
            best = h
        if ok:
            return (g, ExpanderSpec(n=n, p=p, d=d, certified_h=h, certificate_kind=kind)), best
    return None, best


def build_expander(n: int, p, seed: int) -> tuple[MultiGraph, ExpanderSpec]:
    """Construct a d-regular multigraph with certified Cheeger number >= p.

    Starting from d = ceil(2p) + 2, samples random d-regular multigraphs and
    certifies each; after TRIES_PER_DEGREE failures the degree is bumped
    (skipping parities with d*n odd), up to DEGREE_CEILING. Deterministic for
    fixed (n, p, seed).
    """
    p = Fraction(p)
    if n < 1:
        raise DomainError("expander needs at least one vertex")
    if p <= 0:
        raise DomainError("required Cheeger bound p must be positive")
    rng = random.Random(seed)
    degrees = _degrees(p, n)
    best_seen = None
    for d in degrees:
        got, best = _sample_certified(n, d, p, rng)
        if got is not None:
            return got
        best_seen = best if best_seen is None else max(best_seen, best)
    raise ConstructionError(
        f"expander construction failed: n={n}, p={p}, degree ceiling "
        f"{DEGREE_CEILING} reached after {len(degrees) * TRIES_PER_DEGREE} samples "
        f"(best certified bound seen: {best_seen})"
    )


def build_expander_family(
    sizes: list[int], p, seed: int
) -> tuple[list[tuple[MultiGraph, ExpanderSpec]], int]:
    """Certified expanders on several vertex counts sharing one degree d.

    Consumers that need a uniform occurrence profile (one d for every gadget)
    use this instead of independent build_expander calls, whose achieved
    degrees could differ. d starts even so d*n stays even for every size, and
    moves up by 2 whenever some size fails TRIES_PER_DEGREE samples.
    """
    p = Fraction(p)
    if any(n < 1 for n in sizes):
        raise DomainError("expander sizes must be positive")
    if p <= 0:
        raise DomainError("required Cheeger bound p must be positive")
    rng = random.Random(seed)
    for d in _degrees(p, 1):
        results = []
        for n in sizes:
            got, _ = _sample_certified(n, d, p, rng)
            if got is None:
                break
            results.append(got)
        else:
            return results, d
    raise ConstructionError(
        f"expander family construction failed: sizes={sizes}, p={p}, "
        f"degree ceiling {DEGREE_CEILING} reached"
    )
