"""Exact exponential-time solvers and graph-class recognizers.

These are the ground truth every reduction is checked against. Each
optimisation solver takes the argmax or argmin of a subset table (feedback
vertex set: the first acyclic set on its top level) or runs the Held-Karp
subset DP `_suffix_dp`, never a heuristic; only the brute-force
class completion enumerates. Every cap is a fixed number, and exceeding it
raises instead of truncating. Ties between optimal witnesses are broken
deterministically: the lexicographically smallest optimal ordering,
partition, assignment or vertex set. Fill-in and chain completion complete the
lexicographically smallest optimal elimination order or left order of A; class
completion returns the first smallest edge set in itertools.combinations order.

Max SAT and max NAE take the argmax of a table of the clauses each assignment
satisfies: m less those it leaves unsatisfied, which the subset-sum kernel
`bitops.subset_sums` adds up over all 2^n assignments from the signed
monomials of every clause's unsatisfied indicator, in n passes over the table
whatever m is. Chain completion counts the B-vertices whose neighbourhood lies
inside each set of A with the same kernel.

The Held-Karp kernel `_suffix_dp(n, cost, bound)` builds a vertex order one
append at a time, and each append pays a cost indexed by the new prefix
Y = S + v, a bitmask. bound is the most any vertex order may cost; each
caller proves its own beside the call. The cost takes one of three forms:

- a table of 2^n costs of any integer type, when the cost depends on Y
  alone: one array, or a tuple of arrays laid end to end. That is the
  B-vertices touched by Y for chain completion, and for arrangement the
  boundary cut of Y as the half table of `bitops` and its reversed view,
  since the complement of 2^(n-1) + r is 2^(n-1) - 1 - r. Entries past 2^n
  are ignored, and the table is never written;
- an (n, n) integer in-weight matrix w, when the cost is the weight into v
  from the vertices outside Y, the sum of w[v, u] over u not in Y: feedback
  arc set, with w[v, u] the weight of the arcs u -> v. That cost is linear
  in Y, indeg(v) less the in-weight from Y's high bits less that from its
  low bits, so the kernel reads it from two half-width tables per vertex
  and never forms a mask. The diagonal is ignored, and w is never written;
- a callable (ys, v) returning the costs of the masks ys, each holding v, in
  an array of ys's shape, when the cost depends on v in any other way:
  fill-in. In the DP ys is a 3-D int64 array, one gather's masks, and v an
  int64 array of shape (a, b, 1) that broadcasts against it, the vertex each
  mask appended; when the order is read back, ys is 1-D with one mask and v
  an int. ys is the callable's to overwrite.

The kernel keeps one 2^n array, which a table seeds, in the narrowest signed
type holding 0..bound (`bitops._signed_dtype`); that type's max marks a mask
with no candidate yet and is never added to. It is blocked:
the array is viewed as 2^(n-k) rows of 2^k masks, k = `_split(n)`, and
solved one row level (rows of one popcount) at a time, with one gather per
popcount level of the bits appended, never one per vertex. Appending one of
the high n - k vertices gathers every one-bit superset row of a chunk of the
level's rows from the level above; appending one of the low k vertices
gathers, for one column level of the level's block, transposed, every
candidate at once. Each gather is folded in by a minimum over its superset
axis. A table is added once per level and column level; a matrix's half
tables are subtracted and added once per gather, and a callable is called
once per gather, so once per row chunk and once per (row level, column
level): 134 calls at n = 20 and 93 at n = 16, where one call per appended
vertex made 976 and 496. Costs are non-negative, and no order may
cost 2^62 or more; the weighted oracles refuse such inputs with DomainError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bitops import (
    _fill_by_doubling,
    _signed_dtype,
    bitpos,
    cut_weight_blocks,
    cut_weight_table,
    mask_to_side_tuple,
    masks_by_popcount,
    neighbourhood_table,
    popcount_table,
    subset_sums,
)
from .errors import CapExceededError, DomainError
from .model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
)

_INF = np.int64(1) << 62


@dataclass(frozen=True)
class SolveResult:
    """Optimum value plus a witness achieving it."""

    value: int
    witness: object


def _check_cap(size: int, cap: int, what: str):
    if size > cap:
        raise CapExceededError(f"{what}: size {size} exceeds cap {cap}")


def _check_weight(bound: int, what: str):
    """Refuse a weighted DP whose orders may cost as much as its sentinel."""
    if bound >= _INF:
        raise DomainError(f"{what}: an order may cost {bound}, not below 2^62")


def backward_arc_weight(d: Digraph, pi: Ordering) -> int:
    """FAS cost of an ordering: backward arc weight, plus all loop copies."""
    if len(pi) != d.n:
        raise DomainError(f"ordering has {len(pi)} entries, digraph has {d.n}")
    pos = np.array(pi.positions(), dtype=np.int64)
    # positions are distinct, so >= picks out the backward arcs and the loops
    return int(d.mult[pos[d.u] >= pos[d.v]].sum())


def _split(n: int) -> int:
    """k, the low bits of the kernel's (2^(n-k), 2^k) layout at size n.

    Timed for k from this rule's - 2 to + 3 on `ola_exact`'s cut table,
    `min_fill_in_exact`'s callable and `min_fas_exact`'s in-weight matrix,
    over random graphs and digraphs with 3n edges (best of 15 calls, 7 at
    n = 20, in each of three rounds; 2-core x86-64, CPython 3.11.7, numpy
    2.4.6):

        n   k   table ms (fastest)   callable ms (fastest)   matrix ms (fastest)
        14  5   0.79 (this k)        1.73 (1.68, k = 6)      1.04 (1.01, k = 6)
        16  6   1.28 (1.20, k = 8)   3.40 (3.08, k = 7)      1.56 (1.31, k = 7)
        18  7   2.29 (this k)        8.90 (this k)           2.71 (2.39, k = 8)
        20  8   6.37 (this k)        40.41 (39.63, k = 9)    5.57 (5.32, k = 9)

    This k was the fastest for the table at every size but 16 (7 % off
    there) and within 10 % of the fastest for the callable. The matrix was
    fastest one bit wider at every size, by 3-19 %, 0.3 ms at its cap of 18;
    one rule serves all three forms.
    """
    return max(n - 3, 0) // 2


def _appends(width: int):
    """The masks over width bits in popcount order, the place of each mask in
    that order, and the start of each popcount level in it. Then per level l,
    two (C(width, l), width - l) tables over the level's masks in that
    order: each mask's one-bit supersets and the bits added, in increasing
    order. O(width 2^width), in a few whole-array operations.
    """
    pc = popcount_table(width)
    order = np.argsort(pc, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    starts = np.searchsorted(pc[order], np.arange(width + 2))
    # the clear bits of every mask, row by row in popcount order, with the
    # bit matrix in the narrowest type: the rows run level by level
    narrow = order.astype(np.min_scalar_type(order.size - 1))
    clear = (narrow[:, None] >> np.arange(width, dtype=narrow.dtype) & 1) == 0
    row, bit = np.divmod(np.flatnonzero(clear), width)
    sup = order.take(row)
    sup |= np.left_shift(1, bit, out=row)
    shapes = [(int(starts[l + 1] - starts[l]), width - l) for l in range(width + 1)]
    ends = np.cumsum([0] + [c * d for c, d in shapes])
    per_level = [
        tuple(a[ends[l] : ends[l + 1]].reshape(shape) for a in (sup, bit))
        for l, shape in enumerate(shapes)
    ]
    return order, place, starts, per_level


def _entry(pieces: tuple, i: int) -> int:
    """Entry i of the arrays pieces laid end to end."""
    for piece in pieces:
        if i < piece.size:
            return int(piece[i])
        i -= piece.size
    raise IndexError(i)


def _transpose(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """dst = src.T, 64 rows of src at a time; returns dst. A whole transposed
    copy walks src down its columns, so once src outgrows the L1 cache each
    of its cache lines is fetched once per cell; a 64-row strip of a level
    block (32 KiB at n = 20) stays in L1. On a 924 x 256 int16 block, the
    widest at n = 20 (2-core x86-64), that took 90-158 us against 296-310.
    """
    for i in range(0, src.shape[0], 64):
        dst[:, i : i + 64] = src[i : i + 64].T
    return dst


def _one_block(*parts) -> list[np.ndarray]:
    """An empty 1-D array per (dtype, cells) of parts, each a view of one
    allocation; parts come in order of non-increasing item size, so that
    every view is aligned. When glibc unmaps a block above its mmap
    threshold, it raises that threshold to the block's size and its trim
    threshold to twice that, so from the second call on a kernel's one block
    comes from the heap and stays there between calls. As separate arrays,
    `ola_exact`'s at n = 20 were given back and faulted in afresh on every
    call, 953 minor faults (3.7 MiB) each, once no oracle freed a larger
    block."""
    sizes = [np.dtype(t).itemsize * cells for t, cells in parts]
    block = np.empty(sum(sizes), dtype=np.uint8)
    ends = list(itertools.accumulate(sizes, initial=0))
    return [block[a:b].view(t) for (t, _), a, b in zip(parts, ends, ends[1:])]


def _in_weight_halves(w: np.ndarray, k: int, dt) -> tuple:
    """indeg, hi and lo of the in-weight matrix w in dt, with w[v, u] the
    weight of the arcs u -> v and the diagonal ignored: hi[v][h] and lo[v][l]
    are the in-weight of v from the vertices of the high mask h and the low
    mask l of the kernel's (2^(n-k), 2^k) layout, and indeg[v] their sum over
    every vertex. Each table is filled by doubling for all n vertices at
    once."""
    n = len(w)
    w = w.copy()
    np.fill_diagonal(w, 0)
    by_bit = w[:, ::-1].astype(dt)  # column i: the vertex at bit i
    lo = _fill_by_doubling(np.empty((1 << k, n), dtype=dt), 0, by_bit.T[:k]).T
    hi = _fill_by_doubling(np.empty((1 << (n - k), n), dtype=dt), 0, by_bit.T[k:]).T
    return hi[:, -1] + lo[:, -1], hi, lo


def _suffix_dp(n: int, cost, bound: int) -> tuple[int, list[int]]:
    """Generic subset DP over prefixes: h[S] = least cost of appending the
    vertices outside S one by one, with cost a prefix table, an in-weight
    matrix or a per-vertex callable as the module docstring sets out, and
    no vertex order costing more than bound. Returns the optimum and the
    lexicographically smallest optimal vertex sequence.

    The one 2^n array dp holds h for a matrix or a callable and g = h +
    table for a table, so that h[S] is the least dp[S + v]; for a table it
    starts as a copy of the table's pieces, and each row level's table
    values are read before the level is overwritten. dp and the level
    buffers take the narrowest signed type holding 0..bound: every
    candidate is the cost of a real partial order, so at most bound, and
    the type's max, which marks the full row's masks before their
    candidates, is only ever an operand of a minimum, since each mask below
    the full one gets a real candidate before it is read. dp is viewed as
    (2^m, 2^k) blocks, k = _split(n): the high m bits pick the row and the
    low k bits the column, and a solved row keeps its columns in popcount
    order. Row levels (rows of equal popcount) are solved from the full row
    down, each with one gather per popcount level over the `_appends`
    tables:

    - the high bits: for a chunk of the level's rows at a time, every
      one-bit superset row from the level above, (rows, m - j, 2^k), so
      that the chunk's candidates fit the buffers;
    - the low bits: on the level's block transposed, so that each column
      level is a slice, for one column level at a time from the top down,
      every candidate, (columns, k - l, rows).

    A minimum over the superset axis folds each gather into the level; the
    minimum of a mask does not depend on the order of its candidates. A
    callable is called once per gather, with ys the gathered masks and v
    the vertices appended. A matrix becomes the half tables of
    `_in_weight_halves`, and appending v to make Y costs indeg[v] -
    hi[v][Y >> k] - lo[v][Y & 2^k - 1]. A high-bit gather subtracts the
    lo rows of its appended vertices, whole, in popcount column order, and
    adds indeg - hi per row; a low-bit gather subtracts hi of its appended
    vertices at the level's rows, taken once per row level, and adds
    indeg - lo per column. Subtracting first keeps every cell in the type:
    a real candidate less an in-weight is at least -bound. Every candidate
    read is a real append, n 2^(n-1) in all. The buffers are two level
    blocks, the candidates of the widest column level, at most 1.1 blocks
    for k <= 8, and either the candidates' masks, their subtrahends or the
    level's table values; they and dp are views of one allocation
    (`_one_block`). The order is read back from
    the empty prefix by taking, each time, the first vertex with the least
    candidate.
    """
    size = 1 << n
    k = _split(n)
    m = n - k
    cols = 1 << k
    matrix = isinstance(cost, np.ndarray) and cost.ndim == 2
    table = None if callable(cost) or matrix else cost if isinstance(cost, tuple) else (cost,)
    dt = _signed_dtype(bound)
    rows, _, row_starts, row_ups = _appends(m)
    col_order, col_place, col_starts, col_ups = _appends(k)
    col_at = [col_place.take(sup) for sup, _ in col_ups]  # the supersets' places
    width = int(np.diff(row_starts).max())
    # the candidate buffers' cells per row: the widest column level's, or a whole row
    fan = max(cols, *(sup.size for sup, _ in col_ups))
    # aux holds the candidates' masks or subtrahends, or the level's table values
    aux, dp, best, blk_t, cand = _one_block(
        (np.int64 if callable(cost) else dt, width * (cols if table is not None else fan)),
        (dt, size), (dt, width * cols), (dt, width * cols), (dt, width * fan),
    )
    if table is not None:
        at = 0
        for piece in table:
            piece = piece[: size - at]
            np.copyto(dp[at : at + piece.size], piece, casting="unsafe")
            at += piece.size
    dp2 = dp.reshape(-1, cols)
    if matrix:
        indeg, into_hi, into_lo = _in_weight_halves(cost, k, dt)
        lo_sorted = into_lo[:m].take(col_order, axis=1)  # the high vertices' lo rows
        due_hi = indeg[:m, None] - into_hi[:m]
        due_lo = indeg[m:, None] - into_lo[m:]
        # per column level: each candidate's low vertex, less m, and its indeg - lo
        col_low = [k - 1 - bit for _, bit in col_ups]
        col_due = [due_lo[low, sup] for (sup, _), low in zip(col_ups, col_low)]
    for j in range(m, -1, -1):
        masks = rows[row_starts[j] : row_starts[j + 1]]
        w = masks.size
        blk = best[: w * cols].reshape(w, cols)
        if j == m:
            blk.fill(np.iinfo(dt).max)
            blk[0, cols - 1] = 0  # the full mask appends nothing
        else:
            sup, bit = row_ups[j]
            appended = m - 1 - bit
            if matrix:
                due = due_hi[appended, sup]
            chunk = width * fan // ((m - j) * cols)
            for r in range(0, w, chunk):
                s = sup[r : r + chunk]
                c = dp2.take(s, axis=0, out=cand[: s.size * cols].reshape(*s.shape, cols), mode="clip")
                if matrix:
                    sub = aux[: c.size].reshape(c.shape)
                    c -= lo_sorted.take(appended[r : r + chunk], axis=0, out=sub, mode="clip")
                    c += due[r : r + chunk, :, None]
                elif table is None:
                    ys = np.bitwise_or((s << k)[..., None], col_order, out=aux[: c.size].reshape(c.shape))
                    c += cost(ys, appended[r : r + chunk, :, None])
                np.minimum.reduce(c, axis=1, out=blk[r : r + chunk])
        if table is not None:
            # the level's rows still hold their table values, columns unsorted
            tables = dp2.take(masks, axis=0, out=cand[: w * cols].reshape(w, cols), mode="clip")
            tables = tables.take(col_order, axis=1, out=blk_t[: w * cols].reshape(w, cols), mode="clip")
            tt = _transpose(tables, aux[: w * cols].reshape(cols, w))
        elif matrix:
            hi_rows = into_hi[m:].take(masks, axis=1)  # the low vertices' hi at the level's rows
        bt = _transpose(blk, blk_t[: w * cols].reshape(cols, w))
        spent = best[: w * cols].reshape(cols, w)  # blk, once transposed
        if table is None:
            gt = bt
        else:
            gt = spent
            np.add(bt[cols - 1 :], tt[cols - 1 :], out=gt[cols - 1 :])
        row_mask = masks << k
        for level in range(k - 1, -1, -1):
            sup, bit = col_ups[level]
            lo, hi = col_starts[level], col_starts[level + 1]
            c = gt.take(col_at[level], axis=0, out=cand[: sup.size * w].reshape(*sup.shape, w), mode="clip")
            if matrix:
                c -= hi_rows.take(col_low[level], axis=0, out=aux[: c.size].reshape(c.shape), mode="clip")
                c += col_due[level][..., None]
            elif table is None:
                ys = np.bitwise_or(sup[..., None], row_mask, out=aux[: c.size].reshape(c.shape))
                c += cost(ys, n - 1 - bit[..., None])
            # gt[lo:hi] is not read yet, so spent holds the minima either way
            np.minimum(bt[lo:hi], np.minimum.reduce(c, axis=1, out=spent[lo:hi]), out=bt[lo:hi])
            if table is not None:
                np.add(bt[lo:hi], tt[lo:hi], out=gt[lo:hi])
        dp2[masks] = _transpose(gt, cand[: w * cols].reshape(w, cols))
    order, mask, value, paid = [], 0, 0, 0
    for _ in range(n):
        picks = []
        for v in range(n):
            y = mask | 1 << (n - 1 - v)
            if y != mask:
                if table is not None:
                    step = _entry(table, y)
                elif matrix:
                    step = int(indeg[v]) - int(into_hi[v, y >> k]) - int(into_lo[v, y & cols - 1])
                else:
                    step = int(cost(np.array([y]), v)[0])
                here = int(dp2[y >> k, col_place[y & cols - 1]])
                picks.append((here + (0 if table is not None else step), v, y, step))
        least, v, mask, step = min(picks)  # the first vertex with the least candidate
        if not order:
            value = least
        order.append(v)
        paid += step
    if paid != value:  # pragma: no cover - DP invariant
        raise AssertionError("suffix DP reconstruction failed")
    return value, order


def ola_exact(g: MultiGraph) -> SolveResult:
    """Minimum linear arrangement by Held-Karp subset DP.

    The cost of a prefix set S is independent of its internal order except
    through the per-step boundary cuts, so dp runs over subsets: appending any
    vertex to prefix S pays the full boundary cut of the new prefix.
    """
    _check_cap(g.n, 20, "ola_exact")
    # every edge is stretched at most n - 1
    bound = (g.n - 1) * g.m
    _check_weight(bound, "ola_exact")
    table = cut_weight_table(g)
    value, order = _suffix_dp(g.n, (table, table[::-1]), bound)
    return SolveResult(value, Ordering(tuple(order)))


# mask bits per block of the streamed cut table. Timed twice at 12 to 23
# bits for n = 24, m = 120 (2-core x86-64, CPython 3.11, numpy 2.4): 16 was
# the fastest for bisection; for max cut only the whole table (23 bits,
# 8 MiB) was faster, by 2 and 27 %; 12 took three times as long. The blocks
# and their tables hold about 1-1.5 MiB.
_CUT_BLOCK_BITS = 16


def max_cut_exact(g: MultiGraph) -> SolveResult:
    """Maximum cut by enumeration over 2^(n-1) partitions (vertex 0 on side A),
    streamed in blocks; the first strict maximum is the smallest mask."""
    _check_cap(g.n, 24, "max_cut_exact")
    value, mask = -1, 0
    for start, block in cut_weight_blocks(g, _CUT_BLOCK_BITS):
        i = int(np.argmax(block))
        if block[i] > value:
            value, mask = int(block[i]), start + i
    return SolveResult(value, VertexPartition(mask_to_side_tuple(mask, g.n)))


def min_bisection_exact(g: MultiGraph) -> SolveResult:
    """Minimum balanced cut by enumeration; n must be even.

    A mask of the half cut table is balanced when it holds n/2 vertices, so in
    the block of high bits h only the low masks with n/2 - |h| bits are read;
    the first strict minimum is the smallest mask.
    """
    if g.n % 2 != 0:
        raise DomainError(f"min bisection needs an even vertex count, got {g.n}")
    _check_cap(g.n, 24, "min_bisection_exact")
    n = g.n
    bits = min(_CUT_BLOCK_BITS, max(n - 1, 0))
    by_count = masks_by_popcount(bits)  # each class in increasing order
    value, mask = None, 0
    for start, block in cut_weight_blocks(g, bits):
        k = n // 2 - start.bit_count()  # start's low bits are clear
        if not 0 <= k <= bits:
            continue
        cuts = block[by_count[k]]
        i = int(np.argmin(cuts))
        if value is None or cuts[i] < value:
            value, mask = int(cuts[i]), start + int(by_count[k][i])
    return SolveResult(value, VertexPartition(mask_to_side_tuple(mask, n)))


def _split_rows(masks, free, weights, rows):
    """Split each of rows on its lowest free bit b: x^M (1 - x)^F is
    x^M (1 - x)^(F - b) less x^(M + b) (1 - x)^(F - b). Returns the rows
    with the new ones after them; free is written."""
    left = free[rows]
    low = left & ~left + np.uint32(1)
    left ^= low
    free[rows] = left
    return (
        np.concatenate((masks, masks[rows] | low)),
        np.concatenate((free, left)),
        np.concatenate((weights, -weights[rows])),
    )


def _unsat_terms(f: CnfFormula, nae: bool):
    """Yield the monomials of the clauses' unsatisfied indicators, as uint32
    masks (variable v at bit n - 1 - v, n <= 24) and int8 weights, in
    batches: summed over every batch's terms whose mask lies inside an
    assignment's, they give the clauses it leaves unsatisfied.

    A clause is unsatisfied when all its literals are false, and NAE-unsatisfied
    also when all are true. Each such product is x^B (1 - x)^F, B the variables
    whose literal is false at x_v = 1 and F those false at x_v = 0, so it is the
    sum over the subsets T of F of (-1)^|T| x^(B + T). A repeated literal adds
    its variable once, and the terms of a product whose B and F meet, which is
    0, cancel, for x_v^2 = x_v. The terms are made by doubling, every row's
    lowest free bit at a time. So that a batch's terms take a few times the
    memory of the table at most, however wide the clauses, a product with more
    than 2^max(n - 4, 10) terms is first split into rows with that many, and a
    batch holds rows with at most twice that many. O(sum of 2^|F| over the
    products) time.
    """
    n, m = f.var_count, f.m
    flat = itertools.chain.from_iterable
    lits = np.fromiter(flat(flat(f.clauses)), dtype=np.int64).reshape(-1, 2)
    bit = np.left_shift(1, n - 1 - lits[:, 0]).astype(np.uint32)
    one = lits[:, 1] == 1  # a positive literal is false at x_v = 0
    prod = np.repeat(np.arange(m), [len(clause) for clause in f.clauses])
    if nae:  # a clause's all-true product is the all-false one of its negation
        bit, one, prod = np.tile(bit, 2), np.concatenate((one, ~one)), np.concatenate((prod, prod + m))
    masks, free = (np.zeros(2 * m if nae else m, dtype=np.uint32) for _ in range(2))
    np.bitwise_or.at(masks, prod[~one], bit[~one])
    np.bitwise_or.at(free, prod[one], bit[one])
    rows = (masks, free, np.ones(masks.size, dtype=np.int8))
    budget = max(n - 4, 10)  # log2 of the terms a row may hold
    while (wide := np.flatnonzero(np.bitwise_count(rows[1]) > budget)).size:
        rows = _split_rows(*rows, wide)
    terms = np.cumsum(np.left_shift(1, np.bitwise_count(rows[1]), dtype=np.int64))
    ends = np.flatnonzero(np.diff(terms >> budget)) + 1
    for batch in zip(*(np.split(a, ends) for a in rows)):
        while (more := np.flatnonzero(batch[1])).size:
            batch = _split_rows(*batch, more)
        yield batch[0], batch[2]


def _assignment_counts(f: CnfFormula, nae: bool) -> np.ndarray:
    """counts[mask] = clauses satisfied (or NAE-satisfied) by assignment mask,
    in the narrowest unsigned type holding the clause count: m less the
    unsatisfied ones, the sum of `bitops.subset_sums` over the batches of
    `_unsat_terms`. A batch's table may wrap in that type, but the total at
    every mask lies in 0..m, so the wraps cancel. O(sum of 2^|F| over the
    products + b n 2^n) time for b batches, one unless that sum of 2^|F|
    passes 2^max(n - 4, 10).
    """
    counts = None
    for masks, weights in _unsat_terms(f, nae):
        sums = subset_sums(f.var_count, masks, weights, f.m)
        counts = sums if counts is None else np.add(counts, sums, out=counts)
    return np.subtract(f.m, counts, out=counts)


def _max_assignment(f: CnfFormula, nae: bool) -> SolveResult:
    _check_cap(f.var_count, 24, "max_nae_exact" if nae else "max_sat_exact")
    counts = _assignment_counts(f, nae)
    best = int(np.argmax(counts))
    return SolveResult(int(counts[best]), Assignment(mask_to_side_tuple(best, f.var_count)))


def max_sat_exact(f: CnfFormula) -> SolveResult:
    """Maximum number of (ordinarily) satisfied clauses, by enumeration."""
    return _max_assignment(f, nae=False)


def max_nae_exact(f: CnfFormula) -> SolveResult:
    """Maximum number of NAE-satisfied clauses, by enumeration."""
    return _max_assignment(f, nae=True)


def min_fas_exact(d: Digraph) -> SolveResult:
    """Minimum feedback arc weight over orderings by Held-Karp subset DP.

    Arc multiplicities act as weights. Self-loops are never backward under any
    ordering but must be deleted to reach acyclicity, so their weight is added
    as a constant.
    """
    _check_cap(d.n, 18, "min_fas_exact")
    # every arc is backward at most once, loops never
    _check_weight(d.m, "min_fas_exact")
    n = d.n
    # into[v, u] = weight of the arcs u -> v, which are backward when v is
    # placed before u. Pairs are distinct, so each assignment places one
    # multiplicity; the kernel ignores the loops on the diagonal
    into = np.zeros((n, n), dtype=np.int64)
    into[d.v, d.u] = d.mult
    value, order = _suffix_dp(n, into, d.m)
    value += int(d.mult[d.u == d.v].sum())
    witness = Ordering(tuple(order))
    if backward_arc_weight(d, witness) != value:  # pragma: no cover - DP invariant
        raise AssertionError("feedback arc weight of the order disagrees with DP value")
    return SolveResult(value, witness)


def min_fvs_exact(d: Digraph) -> SolveResult:
    """Smallest vertex set whose removal leaves the digraph acyclic: the
    complement of a largest acyclic set, from a table acyclic[S] over vertex
    sets filled one popcount level at a time.

    A sink of S is a vertex of S with no arc into S. S is acyclic iff it has
    a sink s and S - s is acyclic, for a sink lies on no cycle of S and an
    acyclic S ends in a sink of any topological order; so any sink will do,
    and the lowest-bit one is taken. The sinks are S less the vertices with
    an arc into S, which are the OR of two half-width tables over S's high
    and low bits. A looped vertex is never a sink, so it is in every
    feedback set.
    Subsets of acyclic sets are acyclic, so the levels stop at the first with
    none. With vertex v at bit n - 1 - v, a smaller mask is a
    lexicographically larger set of the same size, so the witness, the
    complement of the smallest acyclic mask on the highest level that holds
    one, is the lexicographically smallest minimum set. O(2^n) time and 2^n
    bools.
    """
    _check_cap(d.n, 20, "min_fvs_exact")
    n, low = d.n, d.n // 2
    into = np.zeros(n, dtype=np.int64)  # the vertices with an arc into the vertex at bit i
    np.bitwise_or.at(into, bitpos(n, d.v), 1 << bitpos(n, d.u))
    into_lo = _fill_by_doubling(np.empty(1 << low, dtype=np.int64), 0, into[:low], np.bitwise_or)
    into_hi = _fill_by_doubling(np.empty(1 << n - low, dtype=np.int64), 0, into[low:], np.bitwise_or)
    lo_by_count, hi_by_count = masks_by_popcount(low), masks_by_popcount(n - low)
    acyclic = np.zeros(1 << n, dtype=bool)
    acyclic[0] = True
    size, found = 0, [0]
    for k in range(1, n + 1):
        level = []  # the smallest acyclic mask of each block of level k
        for a in range(max(k - low, 0), min(k, n - low) + 1):
            hi, lo = hi_by_count[a], lo_by_count[k - a]
            masks = np.bitwise_or.outer(hi << low, lo)  # rising in row-major order
            sinks = masks & ~np.bitwise_or.outer(into_hi[hi], into_lo[lo])
            # S less its lowest sink; S itself, still False, when it has none
            acyclic[masks] = got = acyclic[masks ^ (sinks & -sinks)]
            i = int(got.argmax())
            if got.flat[i]:
                level.append(int(masks.flat[i]))
        if not level:
            break
        size, found = k, level
    first = min(found)
    return SolveResult(n - size, tuple(v for v in range(n) if not first >> bitpos(n, v) & 1))


def min_chain_completion_exact(h: BipartiteGraph) -> SolveResult:
    """Minimum chain completion by Held-Karp subset DP over left orders of A.

    For a fixed left order, the unique minimal completion connects every
    B-vertex to the suffix of A starting at its earliest neighbor. Its size
    plus the edge count is the sum, over the nonempty prefixes S of the order,
    of the number of B-vertices with a neighbor in S; so appending a vertex to
    a prefix pays that count for the new prefix. The witness completes the
    lexicographically smallest optimal left order.
    """
    _check_cap(h.a_size, 20, "min_chain_completion_exact")
    a_size = h.a_size
    # inside[mask] = number of B-vertices whose neighborhood lies inside mask
    nbr_masks = np.zeros(h.b_size, dtype=np.int64)
    np.bitwise_or.at(nbr_masks, h.v, 1 << bitpos(a_size, h.u))
    inside = subset_sums(a_size, nbr_masks, np.ones(h.b_size, dtype=np.int64), h.b_size)
    # a B-vertex touches mask unless its neighborhood lies inside the complement
    touched = h.b_size - inside[::-1]
    # each of the a_size prefixes touches at most every B-vertex
    value, order = _suffix_dp(a_size, touched, a_size * h.b_size)
    pos = np.argsort(order)  # each A-vertex's place in the order
    earliest = np.full(h.b_size, a_size, dtype=np.int64)
    np.minimum.at(earliest, h.v, pos[h.u])
    missing = pos[:, None] >= earliest
    missing[h.u, h.v] = False
    return SolveResult(value - h.m, tuple(map(tuple, np.argwhere(missing).tolist())))


def _component_boundary_counts(union: np.ndarray, n: int, bit: int) -> np.ndarray:
    """For each mask Y holding bit, in increasing order: |N(C) minus Y|, where C
    is the component of that bit's vertex in G[Y] and union is N[S] by mask.

    C is grown over all Y at once by r = (r | N[r]) & Y until no entry moves.
    The working arrays are freed on return, before the next vertex's exist.
    """
    ys = np.arange(1 << (n - 1), dtype=np.int64)
    ys += ys & -bit  # move the bits at and above bit up one place
    ys |= bit
    comp = np.full_like(ys, bit)
    grown = np.empty_like(ys)
    while True:
        # every mask is a valid index; "clip" spares the bounds-check buffer
        np.take(union, comp, out=grown, mode="clip")
        grown |= comp
        grown &= ys
        if np.array_equal(grown, comp):
            break
        comp, grown = grown, comp
    np.take(union, comp, out=grown, mode="clip")
    grown &= np.invert(ys, out=ys)
    return np.bitwise_count(grown)


def _fill_cost_tables(g: MultiGraph) -> np.ndarray:
    """cost[v][Y] = |N(C) minus Y| for every prefix Y containing v, where C is
    the component of v in G[Y]; 0 where v is not in Y."""
    n = g.n
    union = neighbourhood_table(g)
    cost = np.zeros((n, 1 << n), dtype=np.uint8)
    for v in range(n):
        bit = 1 << (n - 1 - v)
        counts = _component_boundary_counts(union, n, bit)
        cost[v].reshape(-1, 2, bit)[:, 1, :] = counts.reshape(-1, bit)
    return cost


def min_fill_in_exact(g: MultiGraph) -> SolveResult:
    """Minimum fill-in by Held-Karp subset DP over elimination orderings.

    Eliminating v after the set X joins v's neighbours in the eliminated graph
    G_X, which are the vertices outside Y = X + v adjacent to C, the component
    of v in G[Y]. Appending v to the prefix X costs that count, |N(C) minus Y|;
    summed over an order it is the edge count of the filled graph
    (Rose-Tarjan-Lueker 1976), so the fill-in is the optimum minus m. From a
    state X this suffix cost differs from the fill still to come only by the
    edge count of G_X, fixed once X is, so the optimal next vertices are the
    same under both costs and the lexicographically smallest optimal
    elimination order is the one the fill-counting DP finds. Witness fill
    edges come from simulating that order.
    """
    _require_simple(g, "min_fill_in_exact")
    _check_cap(g.n, 20, "min_fill_in_exact")
    n = g.n
    flat = _fill_cost_tables(g).reshape(-1)

    def append_cost(ys, v):
        # ys is scratch, so it becomes the flat index of cost[v, ys] in place
        return flat.take(np.bitwise_or(ys, v << n, out=ys))

    # the order's costs sum to the filled graph's edge count
    total, order = _suffix_dp(n, append_cost, n * (n - 1) // 2)
    value = total - g.m
    cur = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        cur[u].add(v)
        cur[v].add(u)
    alive = set(range(n))
    fill = []
    for v in order:
        nbrs = sorted(cur[v] & alive)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in cur[a]:
                    cur[a].add(b)
                    cur[b].add(a)
                    fill.append((a, b) if a < b else (b, a))
        alive.discard(v)
    if len(fill) != value:  # pragma: no cover - DP invariant
        raise AssertionError("fill-in simulation disagrees with DP value")
    return SolveResult(value, tuple(sorted(fill)))


# ---------------------------------------------------------------------------
# Graph-class recognizers
# ---------------------------------------------------------------------------


def _require_simple(g: MultiGraph, what: str):
    if not g.is_simple():
        raise DomainError(f"{what} requires a simple graph")


def _peo(g: MultiGraph) -> list[int] | None:
    """Perfect elimination ordering via maximum cardinality search, or None."""
    n = g.n
    adj = g.adjacency_sets()
    weights = [0] * n
    visited = [False] * n
    mcs = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not visited[u]),
            key=lambda u: (weights[u], -u),
        )
        visited[v] = True
        mcs.append(v)
        for u in adj[v]:
            if not visited[u]:
                weights[u] += 1
    elim = list(reversed(mcs))
    rank = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in adj[v] if rank[u] > rank[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if b not in adj[a]:
                    return None
    return elim


def is_chordal(g: MultiGraph) -> bool:
    """Chordality via the maximum-cardinality-search perfect-elimination test."""
    _require_simple(g, "is_chordal")
    return _peo(g) is not None


def _has_asteroidal_triple(g: MultiGraph) -> bool:
    """Whether some three vertices have each pair joined by a path that avoids
    the closed neighbourhood of the third. O(n^3): one component labelling of
    G - N[z] per vertex z, then one broadcast test over all triples."""
    n = g.n
    adj = g.adjacency_sets()
    comp = np.full((n, n), -1, dtype=np.int64)
    for z in range(n):
        blocked = adj[z] | {z}
        row = [-1] * n
        for s in range(n):
            if s in blocked or row[s] >= 0:
                continue
            row[s] = s
            stack = [s]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in blocked and row[u] < 0:
                        row[u] = s
                        stack.append(u)
        comp[z] = row
    # same[z, x, y]: x and y lie in one component of G - N[z]
    same = (comp[:, :, None] == comp[:, None, :]) & (comp[:, :, None] >= 0)
    return bool((same & same.transpose(1, 2, 0) & same.transpose(2, 0, 1)).any())


def is_interval(g: MultiGraph) -> bool:
    """Interval recognition by Lekkerkerker-Boland (1962): a graph is interval
    iff it is chordal and has no asteroidal triple. O(n^3) in all."""
    _require_simple(g, "is_interval")
    _check_cap(g.n, 64, "is_interval")
    return _peo(g) is not None and not _has_asteroidal_triple(g)


def _has_claw(g: MultiGraph) -> bool:
    adj = g.adjacency_sets()
    for center in range(g.n):
        nbrs = sorted(adj[center])
        for a, b, c in itertools.combinations(nbrs, 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return True
    return False


def is_proper_interval(g: MultiGraph) -> bool:
    """Proper interval = interval and claw-free."""
    _require_simple(g, "is_proper_interval")
    _check_cap(g.n, 64, "is_proper_interval")
    return is_interval(g) and not _has_claw(g)


def is_threshold(g: MultiGraph) -> bool:
    """Threshold test by Chvatal-Hammer (1977): a graph is threshold iff its
    neighbourhoods are nested, N(u) within N[v] for u before v in degree
    order. The relation is transitive, so consecutive pairs suffice."""
    _require_simple(g, "is_threshold")
    adj = g.adjacency_sets()
    order = sorted(range(g.n), key=lambda v: len(adj[v]))
    return all(adj[u] <= adj[v] | {v} for u, v in zip(order, order[1:]))


def is_trivially_perfect(g: MultiGraph) -> bool:
    """Trivially perfect = no induced P4 and no induced C4, tested as: the
    closed neighbourhoods of the two ends of every edge are nested. An edge uv
    with x in N[u] - N[v] and y in N[v] - N[u] is the middle edge of the
    induced P4 x-u-v-y, or an edge of the induced C4 x-u-v-y-x when x and y
    are adjacent; every induced P4 or C4 has such an edge. O(n m)."""
    _require_simple(g, "is_trivially_perfect")
    closed = [nbrs | {v} for v, nbrs in enumerate(g.adjacency_sets())]
    return all(closed[u] <= closed[v] or closed[v] <= closed[u] for u, v, _ in g.edges)


def is_chain(h: BipartiteGraph) -> bool:
    """Chain graph test: A-side neighborhoods are nested under some order."""
    nbrs = sorted(h.a_neighborhoods(), key=len)
    for small, big in zip(nbrs, nbrs[1:]):
        if not small <= big:
            return False
    return True


_RECOGNIZERS = {
    "chordal": is_chordal,
    "interval": is_interval,
    "proper_interval": is_proper_interval,
    "threshold": is_threshold,
    "trivially_perfect": is_trivially_perfect,
}


def recognizer_for(cls: str):
    try:
        return _RECOGNIZERS[cls]
    except KeyError:
        raise DomainError(
            f"unknown graph class {cls!r}; expected one of {sorted(_RECOGNIZERS)}"
        ) from None


def min_completion_exact(g: MultiGraph, cls: str) -> SolveResult:
    """Brute-force minimum completion into a Table-1 class.

    Tries added-edge subsets in increasing size, so it is exact whenever it
    returns; only usable at toy sizes.
    """
    _require_simple(g, "min_completion_exact")
    recog = recognizer_for(cls)
    present = {(u, v) for u, v, _ in g.edges}
    missing = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in present
    ]
    _check_cap(len(missing), 24, "min_completion_exact candidates")
    for k in range(len(missing) + 1):
        for combo in itertools.combinations(missing, k):
            candidate = MultiGraph(g.n, g.edges + tuple(combo))
            if recog(candidate):
                return SolveResult(k, tuple(combo))
    raise CapExceededError(f"no {cls} completion within {len(missing)} added edges")
