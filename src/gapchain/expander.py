"""Certified expander construction from random regular multigraphs.

Degrees follow the loop-counts-once convention: a matched stub pair landing on
a single vertex is stored as two loop copies, so every sampled graph is
exactly d-regular. Certification is exact (subset enumeration) up to 20
vertices and spectral (h >= (d - lambda_2)/2) above that. The builders
certify each stub matching from its pair-count matrix and build a graph only
for the sample they keep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitops import adjacency_matrix, masks_by_popcount, popcount_table, weight_cut_blocks
from .errors import CapExceededError, ConstructionError, DomainError
from .model import MultiGraph

EXACT_CERT_MAX_N = 20
TRIES_PER_DEGREE = 32  # samples drawn at one (n, d) before the degree goes up
DEGREE_CEILING = 64
_SCALE_BLOCK_BITS = 10  # low bits of a row of the Cheeger scan


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
    return _cheeger_of(adjacency_matrix(g))


def _cheeger_of(a: np.ndarray) -> object:
    """`cheeger_exact` on a symmetric adjacency matrix; the diagonal never crosses.

    Each nonzero mask of the cut table, with k bits set, stands for a set and
    its complement, with one cut; the smaller side X has min(k, n - k)
    vertices. Scaled by L / |X|, L = lcm(1..n/2), every ratio cut/|X| shares
    the denominator L, so an integer minimum finds h exactly. The table is
    read as rows of 2^_SCALE_BLOCK_BITS low masks under each high part: the
    rows whose high part has c bits set give one column minimum, whose
    scales are fixed by c. Scaled cuts that could leave int64 take Python ints.
    """
    n = len(a)
    if n <= 1:
        return math.inf
    [(_, table)] = weight_cut_blocks(a, n)
    lcm = math.lcm(*range(1, n // 2 + 1))
    wide = np.int64 if int(table.max()) * lcm <= np.iinfo(np.int64).max else object
    by_count = np.array([0] + [lcm // min(k, n - k) for k in range(1, n)], dtype=np.int64)
    bits = min(_SCALE_BLOCK_BITS, n - 1)
    rows = table.reshape(-1, 1 << bits)  # row h holds the masks h * 2^bits + l
    low_count = popcount_table(bits)
    best = None
    for c, high in enumerate(masks_by_popcount(n - 1 - bits)):
        scaled = np.minimum.reduce(rows[high], axis=0).astype(wide)
        np.multiply(scaled, by_count[c + low_count], out=scaled, dtype=wide)
        least = (scaled[1:] if c == 0 else scaled).min()  # mask 0 is no set
        best = least if best is None else min(best, least)
    return Fraction(int(best), lcm)


def spectral_cheeger_bound(g: MultiGraph, d: int) -> Fraction | float:
    """Lower bound h >= (d - lambda_2)/2 from the adjacency spectrum.

    Loop copies sit on the diagonal, keeping every row sum equal to d. With
    fewer than two vertices there is no lambda_2, and the bound is +infinity,
    as in cheeger_exact.
    """
    return _spectral_of(adjacency_matrix(g), d)


def _spectral_of(a: np.ndarray, d: int) -> Fraction | float:
    """`spectral_cheeger_bound` on a symmetric adjacency matrix."""
    if len(a) <= 1:
        return math.inf
    eigs = np.linalg.eigvalsh(a.astype(np.float64))
    return Fraction(float(d) - float(eigs[-2])) / 2


def _stub_pairs(n: int, d: int, rng: random.Random) -> np.ndarray:
    """The (2, dn/2) int64 rows u, v of one uniform stub matching."""
    if (d * n) % 2 != 0:
        raise DomainError(f"stub matching needs d*n even, got d={d}, n={n}")
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    return np.array(stubs, dtype=np.int64).reshape(-1, 2).T


def _matched_graph(n: int, u: np.ndarray, v: np.ndarray) -> MultiGraph:
    """The multigraph of a stub matching: each same-vertex pair is two loop copies."""
    return MultiGraph.from_arrays(n, u, v, np.where(u == v, 2, 1))


def sample_regular_multigraph(n: int, d: int, rng: random.Random) -> MultiGraph:
    """Uniform stub-matching sample of a d-regular multigraph.

    A stub pair at a single vertex becomes two loop copies: each copy adds 1
    to the degree, so regularity is exact under the loop convention.
    """
    return _matched_graph(n, *_stub_pairs(n, d, rng))


def _pair_counts(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The adjacency matrix of `_matched_graph(n, u, v)`, from one bincount:
    a stub pair adds 1 at both of its cells, so a loop adds 2 on the diagonal."""
    a = np.bincount(u * n + v, minlength=n * n).reshape(n, n)
    return a + a.T


def _degrees(p: Fraction, n: int) -> range:
    """The degrees to sample, in order: ceil(2p) + 2 up to DEGREE_CEILING,
    skipping each d with d*n odd."""
    d = math.ceil(2 * p) + 2
    return range(d + d * n % 2, DEGREE_CEILING + 1, 1 + n % 2)


def _certify(a: np.ndarray, d: int, p: Fraction):
    """Certify the graph of adjacency matrix a at p. Returns (ok, certified_h, kind)."""
    n = len(a)
    if n == 1:
        # no nonempty X with |X| <= 1/2 exists; vacuously certified at p
        return True, p, "exact"
    if n <= EXACT_CERT_MAX_N:
        h = _cheeger_of(a)
        return h >= p, h, "exact"
    bound = _spectral_of(a, d)
    return bound >= p, bound, "spectral"


def _sample_certified(n: int, d: int, p: Fraction, rng: random.Random):
    """Draw up to TRIES_PER_DEGREE d-regular stub matchings on n vertices.

    Each is certified from its pair-count matrix; only the first certified at
    p becomes a graph. Returns ((graph, spec) for it, or None, and the best
    certified bound seen).
    """
    best = None
    for _ in range(TRIES_PER_DEGREE):
        u, v = _stub_pairs(n, d, rng)
        ok, h, kind = _certify(_pair_counts(n, u, v), d, p)
        if best is None or h > best:
            best = h
        if ok:
            spec = ExpanderSpec(n=n, p=p, d=d, certified_h=h, certificate_kind=kind)
            return (_matched_graph(n, u, v), spec), best
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
