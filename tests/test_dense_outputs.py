"""The lean dense path against the implementations it replaced.

`_reference_absent_pairs` (the full `np.triu_indices` version),
`_reference_absent_pairs_by_mask` (the pair-mask row fill that the per-row
ramp slices replaced),
`_reference_edges_json` (the whole file joined from one object array) and
the tuple loops of `blowup`, `build_t`'s edge assembly, `ola_to_chain`'s slot
assignment and the sorted-key tiling check live on here only as references,
as does the pair-mask clique cover. So does `_induced`,
which cut H back out of T(G) before `build_t` kept `h_graph`. So do the per-row
Python versions that the numpy kernels replaced: the object-array chunk
writer `_reference_rows_json`, the `searchsorted` absent-pair scan, the
`rng.random()` coin loop and the concatenated, sorted clique cover. So does
`_reference_bipartite_json`, the one-`json.dumps` bipartite writer.
Tracemalloc guards hold the dense complement, the absent pairs of a dense
given set, the streamed writers, the tiling check and the two-clique cover to
their budgets.
"""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapchain import cli, completion, fastchain, formats, model, sparseola
from gapchain.denseola import maxcut_to_ola, star_identity_holds
from gapchain.fastchain import blowup
from gapchain.model import BipartiteGraph, Digraph, GapParams, MultiGraph, _absent_pairs, complement
from gapchain.satchain import GapInstance

CHUNK = formats.CHUNK_ROWS


def _reference_absent_pairs(n, u, v):
    iu, iv = np.triu_indices(n, 1)
    absent = np.ones(iu.size, dtype=bool)
    absent[np.searchsorted(iu * n + iv, u * n + v)] = False
    return iu[absent], iv[absent]


def _reference_absent_pairs_by_search(n, u, v):
    """The block scan that found each absent pair's row by `searchsorted`."""
    present = model._pair_mask(n, u, v)
    ids = np.arange(n, dtype=np.int64)
    starts = model._pair_rank(n, ids, ids + 1)
    rows = np.empty((2, present.size - np.count_nonzero(present)), dtype=np.int64)
    at = 0
    for lo in range(0, present.size, model._PAIR_BLOCK):
        rank = np.flatnonzero(~present[lo : lo + model._PAIR_BLOCK]) + lo
        row = np.searchsorted(starts, rank, side="right") - 1
        rows[0, at : at + rank.size] = row
        rows[1, at : at + rank.size] = rank - starts[row] + row + 1
        at += rank.size
    return rows


def _reference_absent_pairs_by_mask(n, u, v):
    """The row fill that read each row's v entries off the pair mask's clear bytes."""
    ends = np.cumsum(np.arange(n - 1, -1, -1) - np.bincount(u, minlength=n)).tolist()
    rows = np.empty((2, ends[-1] if n else 0), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip([0] + ends, ends)):
        rows[0, lo:hi] = i
    ids = np.arange(n, dtype=np.int64)
    starts = model._pair_rank(n, ids, ids + 1)
    mask = model._pair_mask(n, u, v)
    at = 0
    for lo in range(0, mask.size, model._PAIR_BLOCK):
        rank = np.flatnonzero(~mask[lo : lo + model._PAIR_BLOCK]) + lo
        row = rows[0, at : at + rank.size]
        rows[1, at : at + rank.size] = rank - starts[row] + row + 1
        at += rank.size
    return rows


def _reference_complement(g):
    return MultiGraph.from_arrays(g.n, *_reference_absent_pairs(g.n, g.u, g.v))


def _reference_edges_json(g) -> str:
    u, v, mult = g.u, g.v, g.mult
    if len(u) == 0:
        return formats._dump({"n": g.n, "edges": []})
    if g.n > 2 * len(u):
        ids, at = np.unique(np.concatenate((u, v)), return_inverse=True)
        ids, u, v = ids.tolist(), at[: len(u)], at[len(u):]
    else:
        ids = range(g.n)
    heads = np.array([f"[{x}," for x in ids], dtype=object)
    tails = np.array([f"{x},1]," for x in ids], dtype=object)
    parts = np.empty((len(u), 2), dtype=object)
    parts[:, 0], parts[:, 1] = heads[u], tails[v]
    other = np.flatnonzero(mult != 1)
    parts[other, 1] = [f"{y},{m}]," for y, m in zip(g.v[other].tolist(), mult[other].tolist())]
    parts[-1, 1] = parts[-1, 1][:-1]
    return '{"edges":[' + "".join(parts.ravel().tolist()) + f'],"n":{g.n}}}\n'


def _reference_rows_json(heads, tails, u, v, g_v, mult, last: bool) -> str:
    parts = [""] * (2 * len(u))
    parts[0::2] = heads[u].tolist()
    parts[1::2] = tails[v].tolist()
    other = np.flatnonzero(mult != 1)
    for i, y, m in zip(other.tolist(), g_v[other].tolist(), mult[other].tolist()):
        parts[2 * i + 1] = f"{y},{m}],"
    if last:
        parts[-1] = parts[-1][:-1]
    return "".join(parts)


def _reference_edges_json_chunks(g):
    """The text chunks of the object-array writer, one per CHUNK_ROWS rows."""
    u, v, mult = g.u, g.v, g.mult
    k = len(u)
    if g.n > 2 * k:
        ids, at = np.unique(np.concatenate((u, v)), return_inverse=True)
        ids, u, v = ids.tolist(), at[:k], at[k:]
    else:
        ids = range(g.n)
    heads = np.array([f"[{x}," for x in ids], dtype=object)
    tails = np.array([f"{x},1]," for x in ids], dtype=object)
    yield '{"edges":['
    for lo in range(0, k, formats.CHUNK_ROWS):
        rows = slice(lo, lo + formats.CHUNK_ROWS)
        yield _reference_rows_json(heads, tails, u[rows], v[rows], g.v[rows], mult[rows],
                                   lo + formats.CHUNK_ROWS >= k)
    yield f'],"n":{g.n}}}\n'


def _reference_bipartite_json(h) -> str:
    """The one-string bipartite writer: every row as a Python list, one `json.dumps`."""
    return formats._dump({"a": h.a_size, "b": h.b_size, "edges": np.stack((h.u, h.v), axis=1).tolist()})


def _chunk_shapes_hold(chunks, k):
    # bytes around the rows, the rows as uint8 arrays: the opening, one chunk
    # per CHUNK_ROWS rows, and the closing
    assert isinstance(chunks[0], bytes) and isinstance(chunks[-1], bytes)
    assert all(isinstance(c, np.ndarray) and c.dtype == np.uint8 and c.ndim == 1 for c in chunks[1:-1])
    assert len(chunks) == 2 + -(-k // formats.CHUNK_ROWS)


def _chunks_match_reference(g):
    chunks = list(formats.edges_json_chunks(g))
    # chunk for chunk the object-array writer's text
    assert [bytes(c) for c in chunks] == [c.encode() for c in _reference_edges_json_chunks(g)]
    _chunk_shapes_hold(chunks, len(g.u))
    text = b"".join(chunks).decode()
    assert text == _reference_edges_json(g)
    assert text == formats._dump({"n": g.n, "edges": [list(t) for t in g._triples()]})
    assert text == (formats.digraph_to_json if isinstance(g, Digraph) else formats.multigraph_to_json)(g)


def _bipartite_chunks_match_reference(h):
    chunks = list(formats.edges_json_chunks(h))
    _chunk_shapes_hold(chunks, h.m)
    text = b"".join(chunks).decode()
    assert text == _reference_bipartite_json(h) == formats.bipartite_to_json(h)
    assert formats.json_to_bipartite(text) == h


def _pair_columns(pairs):
    return (np.array([a for a, _ in pairs], dtype=np.int64),
            np.array([b for _, b in pairs], dtype=np.int64))


def _random_pairs(rng, n, k):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return rng.sample(pairs, min(k, len(pairs)))


# -- complement and the absent pairs ----------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_complement_of_edgeless_and_complete_graphs(n):
    edgeless = MultiGraph(n)
    complete = MultiGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    assert complement(edgeless) == complete == _reference_complement(edgeless)
    assert complement(complete) == edgeless == _reference_complement(complete)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.floats(0, 1), st.randoms(use_true_random=False))
def test_complement_matches_triu_reference(n, density, rng):
    g = MultiGraph(n, _random_pairs(rng, n, round(density * n * (n - 1) / 2)))
    got = complement(g)
    assert got == _reference_complement(g)
    assert got.edges == _reference_complement(g).edges


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.floats(0, 1), st.randoms(use_true_random=False))
def test_absent_pairs_match_reference_in_any_input_order(n, density, rng):
    pairs = _random_pairs(rng, n, round(density * n * (n - 1) / 2))
    rng.shuffle(pairs)  # complete_to_tournament hands the pairs over unsorted
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    rows = _absent_pairs(n, u, v)
    want_u, want_v = _reference_absent_pairs(n, u, v)
    assert rows.dtype == np.int64 and rows.shape == (2, want_u.size)
    assert rows[0].tolist() == want_u.tolist() and rows[1].tolist() == want_v.tolist()
    assert np.array_equal(rows, _reference_absent_pairs_by_search(n, u, v))


@st.composite
def given_pairs(draw):
    """(n, u, v): distinct pairs u < v in any order, with whole rows given and
    rows left empty, including the last row that holds a pair."""
    n = draw(st.integers(0, 30))
    pairs = set(draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                              max_size=60)))
    pairs = {(a, b) for a, b in pairs if a < b}
    for i in draw(st.lists(st.integers(0, max(n - 2, 0)), max_size=3)):  # every pair of row i
        pairs |= {(i, b) for b in range(i + 1, n)}
    pairs = draw(st.permutations(sorted(pairs)))
    return n, *_pair_columns(pairs)


@settings(max_examples=200, deadline=None)
@given(given_pairs())
@example((0, *_pair_columns([])))
@example((1, *_pair_columns([])))
@example((2, *_pair_columns([])))
@example((2, *_pair_columns([(0, 1)])))
@example((5, *_pair_columns([(3, 4)])))  # only the last row holds a given pair
@example((5, *_pair_columns([(1, 4), (1, 2), (1, 3)])))  # row 1 whole, unsorted
@example((4, *_pair_columns([(2, 3), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])))  # every pair
def test_absent_pairs_match_the_pair_mask_fill(case):
    n, u, v = case
    want = _reference_absent_pairs_by_mask(n, u, v)
    for block in (1, 2, 5, 16, model._PAIR_BLOCK):  # the pair mask filled in blocks of every size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_PAIR_BLOCK", block)
            rows = _absent_pairs(n, u, v)
        assert rows.dtype == np.int64 and rows.flags.c_contiguous
        assert np.array_equal(rows, want)


def test_absent_pairs_cross_block_boundaries():
    # 400 vertices have 79,800 pairs, more than one block; drop pairs at the seams
    n, rng = 400, random.Random(1)
    pairs = _random_pairs(rng, n, 20000) + [(0, 1), (n - 2, n - 1)]
    g = MultiGraph(n, sorted(set(pairs)))
    assert complement(g) == _reference_complement(g)


def test_simple_builders_store_no_multiplicity_column():
    h = BipartiteGraph(3, 4, ((0, 1), (2, 3), (2, 0)))
    d = Digraph(4, [(0, 1), (1, 2), (3, 0)])
    built = [
        complement(MultiGraph(5, [(0, 1), (2, 3)])),
        completion.two_clique_cover(h),
        completion.a_clique_cover(h),
        blowup(d, 3),
        fastchain.complete_to_tournament(d, 7)[0],
    ]
    for g in built:
        assert g.mult.strides == (0,) and not g.mult.flags.writeable
        assert g.m == len(g.u) > 0 and g.is_simple()
        # u and v alone make up the buffer behind them
        assert g.u.base.nbytes == g.u.nbytes + g.v.nbytes


# -- the tiling check ---------------------------------------------------------


def _reference_tiles(out):
    g, src = out.graph, out.source
    total = g.n
    if src.n > total or not (g.is_simple() and src.is_simple()):
        return False
    if g.m + src.m != math.comb(total, 2):
        return False
    keys = np.concatenate((g.u * total + g.v, src.u * total + src.v))
    keys.sort()
    return bool((keys[1:] != keys[:-1]).all())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False), st.sampled_from(["keep", "drop", "add", "swap"]))
def test_tiling_check_matches_sorted_keys(n, rng, change):
    src = MultiGraph(n, _random_pairs(rng, n, rng.randint(0, n * (n - 1) // 2)))
    out = maxcut_to_ola(GapInstance(src, GapParams(0, 1), "edges"))
    edges = list(out.graph.edges)
    total = out.graph.n
    if change == "drop":
        edges.pop(rng.randrange(len(edges)))
    elif change == "add":
        edges.append(rng.choice(list(src.edges) or edges))
    elif change == "swap":  # the pair count kept, one pair replaced by any other pair
        edges.pop(rng.randrange(len(edges)))
        a, b = rng.sample(range(total), 2)
        edges.append((a, b, 1))
    mutated = dataclasses.replace(out, graph=MultiGraph(total, edges))
    assert star_identity_holds(mutated) == _reference_tiles(mutated)
    assert star_identity_holds(mutated) == (change == "keep" or (change == "swap" and mutated.graph == out.graph))


# -- the streamed writer ------------------------------------------------------


@st.composite
def edge_graphs(draw):
    n = draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    mult = st.one_of(st.just(1), st.integers(1, 3), st.integers(1, 2**40))
    items = draw(st.lists(st.tuples(vertex, vertex, mult), max_size=40)) if n else []
    cls = draw(st.sampled_from([MultiGraph, Digraph]))
    return cls(n, items)


@settings(max_examples=200, deadline=None)
@given(edge_graphs(), st.integers(1, 5))
def test_chunks_match_reference_at_small_chunk_sizes(g, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", rows)
        _chunks_match_reference(g)
    _chunks_match_reference(g)


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_chunks_of_tiny_graphs(cls, n):
    # edgeless with n > 0: the relabel branch with no vertex in use
    _chunks_match_reference(cls(n))
    _chunks_match_reference(cls(n, [(0, n - 1, 2)] if n else []))
    assert formats.multigraph_to_json(MultiGraph(n)) == f'{{"edges":[],"n":{n}}}\n'


@pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
def test_chunks_at_the_chunk_size(k, cls):
    n = 400  # 79,800 pairs, enough for CHUNK + 1 distinct edges
    u, v = np.triu_indices(n, 1)
    mult = np.ones(k, dtype=np.int64)
    # multiplicities other than 1 on both sides of the seam, then on the last edge
    for i, m in ((CHUNK - 1, 2), (CHUNK, 7), (k - 1, 5)):
        if i < k:
            mult[i] = m
    g = cls.from_arrays(n, u[:k], v[:k], mult)
    _chunks_match_reference(g)
    text = b"".join(formats.edges_json_chunks(g)).decode()
    assert text.endswith(f"[{u[k - 1]},{v[k - 1]},5]],\"n\":{n}}}\n")


def test_chunks_relabel_only_used_vertices_on_sparse_graphs():
    rng = random.Random(6)
    for n, k in ((10**6, 5), (10**6, CHUNK + 100)):
        u = np.array([rng.randrange(n) for _ in range(k)], dtype=np.int64)
        v = np.array([rng.randrange(n) for _ in range(k)], dtype=np.int64)
        mult = np.array([rng.choice((1, 1, 2)) for _ in range(k)], dtype=np.int64)
        for cls in (MultiGraph, Digraph):
            g = cls.from_arrays(n, u, v, mult)
            assert g.n > 2 * len(g.u) and (k < CHUNK or len(g.u) > CHUNK)
            _chunks_match_reference(g)


def test_pipeline_outputs_are_the_reference_bytes(tmp_path):
    g = MultiGraph(5, [(0, 1), (1, 2, 3), (4, 4, 2)])
    d = Digraph(4, [(3, 0, 2), (0, 3)])
    states = [cli.PipelineState(g, None), cli.PipelineState(d, None)]
    cli.write_pipeline_outputs(states, {"steps": [{"name": "fvs_to_fas"}]}, str(tmp_path), {})
    assert (tmp_path / "step_00_input.json").read_text() == _reference_edges_json(g)
    assert (tmp_path / "step_01_fvs_to_fas.json").read_text() == _reference_edges_json(d)
    assert (tmp_path / "out.json").read_text() == _reference_edges_json(d)


@pytest.mark.parametrize("ids", [
    [], [0], list(range(12)), list(range(95, 105)), [3, 99, 100, 9999, 10000, 123456],
    [0, 10**9, model.MAX_VERTICES - 2, model.MAX_VERTICES - 1],
])
@pytest.mark.parametrize("head, tail", [(b"[", b","), (b"", b",1],"), (b"", b"],")])
def test_id_tables_are_the_formatted_strings(ids, head, tail):
    got = formats._id_table(np.array(ids, dtype=np.int64), head, tail)
    strings = [head + str(x).encode() + tail for x in ids]
    # the NUL padding of a shorter string is not part of its bytes
    assert got.tolist() == strings
    if ids:  # the least power of two that holds the longest string
        longest = max(map(len, strings))
        assert longest <= got.itemsize < 2 * longest and got.itemsize & (got.itemsize - 1) == 0


@pytest.mark.parametrize("n", [10, 11, 100, 101, 10000, 10001])
@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
def test_chunks_across_digit_widths(n, cls):
    # a path through every id, so no relabelling: the ids cross 9 -> 10,
    # 99 -> 100 and 9,999 -> 10,000, where the tail "10000,1]," needs S16
    ids = np.arange(n, dtype=np.int64)
    g = cls.from_arrays(n, ids[:-1], ids[1:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", 7)
        _chunks_match_reference(g)
    _chunks_match_reference(g)


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
@pytest.mark.parametrize("rows", [3, 4096])
def test_chunks_with_nineteen_digit_multiplicities(cls, rows):
    n = 10001  # a path of 10,000 rows in 3,334 or 3 chunks
    ids = np.arange(n, dtype=np.int64)
    mult = np.ones(n - 1, dtype=np.int64)
    # 10^18 has 19 digits, and three of them keep m within int64: either side
    # of the first seam, among rows of multiplicity 1, and the last row, whose
    # tail "10000,1000000000000000000]," widens the tail field past S16
    mult[[rows - 1, rows, n - 2]] = 10**18
    g = cls.from_arrays(n, ids[:-1], ids[1:], mult)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", rows)
        _chunks_match_reference(g)
    _chunks_match_reference(g)
    assert b"".join(formats.edges_json_chunks(g)).endswith(b'[9999,10000,1000000000000000000]],"n":10001}\n')


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
@pytest.mark.parametrize("rows", [1, 2, CHUNK])
def test_chunks_relabel_ids_near_the_vertex_limit(cls, rows):
    n = model.MAX_VERTICES
    top = n - 1  # 3,037,000,498: the head "[3037000498," needs S16
    # the tail "3037000498,1000000000000000000]," is 32 bytes, the widest a row takes
    g = cls(n, [(0, 9, 1), (5, top, 1), (top - 3, top, 1), (top - 2, top - 1, 10**18), (top, top, 10**18)])
    assert g.n > 2 * len(g.u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", rows)
        _chunks_match_reference(g)
    assert b"[3037000498,3037000498,1000000000000000000]]" in b"".join(formats.edges_json_chunks(g))


@st.composite
def bipartite_graphs(draw):
    a, b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    pair = st.tuples(st.integers(0, max(a - 1, 0)), st.integers(0, max(b - 1, 0)))
    pairs = draw(st.sets(pair, max_size=30)) if a and b else set()
    # unused ids past the last in use on either side, up to enough to relabel
    extra = st.sampled_from([0, 1, 30, 10**9])
    return BipartiteGraph(a + draw(extra), b + draw(extra), list(pairs))


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs(), st.integers(1, 5))
@example(BipartiteGraph(0, 0), 1)
@example(BipartiteGraph(0, 5), 1)
@example(BipartiteGraph(5, 0), 2)
@example(BipartiteGraph(10**9, 3, [(0, 2), (10**9 - 1, 0)]), 1)
@example(BipartiteGraph(3, 10**9, [(0, 10**9 - 1), (2, 0), (2, 9)]), 2)
def test_bipartite_chunks_match_reference_at_small_chunk_sizes(h, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", rows)
        _bipartite_chunks_match_reference(h)
    _bipartite_chunks_match_reference(h)


def test_bipartite_chunks_across_the_chunk_size_and_digit_widths():
    # K_{260,260}: 67,600 rows, past one chunk, with ids of one to three digits
    a = b = 260
    u, v = np.divmod(np.arange(a * b, dtype=np.int64), b)
    _bipartite_chunks_match_reference(BipartiteGraph.from_arrays(a, b, u, v))


# -- the numpy kernels against the per-row Python they replaced ---------------


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
@pytest.mark.parametrize("rows", [3, CHUNK])
@pytest.mark.parametrize("extra", [0, 1])
def test_byte_chunks_with_odd_multiplicities_at_the_seam_and_last_row(cls, rows, extra):
    n = 600  # 179,700 pairs, enough for two chunks and one more edge
    k = 2 * rows + extra
    u, v = np.triu_indices(n, 1)
    mult = np.ones(k, dtype=np.int64)
    # either side of the first seam, then the last edge; the wide one widens
    # the tail field past the per-vertex tails
    mult[[rows - 1, rows, k - 1]] = (2, 2**40, 5)
    g = cls.from_arrays(n, u[:k], v[:k], mult)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "CHUNK_ROWS", rows)
        _chunks_match_reference(g)
    _chunks_match_reference(g)


@pytest.mark.parametrize("n", [0, 1, 2, 400])
def test_row_fill_at_tiny_sizes_and_across_blocks(n):
    rng = random.Random(n)
    for k in (0, 1, n * (n - 1) // 4, n * (n - 1) // 2):
        # at 400 vertices the 79,800 pairs span two blocks
        u, v = _pair_columns(_random_pairs(rng, n, k))
        assert np.array_equal(_absent_pairs(n, u, v), _reference_absent_pairs_by_search(n, u, v))


def _reference_coins(rng, k):
    return np.array([rng.random() < 0.5 for _ in range(k)], dtype=bool)


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32, 2**64 + 3])
@pytest.mark.parametrize("k", [0, 1, 2, 7, 309_348])
def test_word_coins_match_random_draws(seed, k):
    rng, ref = random.Random(seed), random.Random(seed)
    got = fastchain._coins(rng, k)
    assert got.dtype == bool and got.shape == (k,)
    assert np.array_equal(got, _reference_coins(ref, k))
    assert rng.getstate() == ref.getstate()


def _reference_with_cliques(h, sides):
    """H's edges and each clique's `triu_indices`, concatenated and sorted."""
    pairs = np.array(h.edges, dtype=np.int64).reshape(-1, 2)
    us, vs = [pairs[:, 0]], [pairs[:, 1] + h.a_size]
    offset = 0
    for size in sides:
        iu, iv = np.triu_indices(size, 1)
        us.append(iu + offset)
        vs.append(iv + offset)
        offset += size
    return MultiGraph.from_arrays(h.a_size + h.b_size, np.concatenate(us), np.concatenate(vs))


def _reference_with_cliques_by_mask(h, sides):
    """The pair-mask build: H's edges and each clique row marked by rank in a
    one-byte pair mask, read back in row-major order."""
    n = h.a_size + h.b_size
    pairs = np.array(h.edges, dtype=np.int64).reshape(-1, 2)
    mask = model._pair_mask(n, pairs[:, 0], pairs[:, 1] + h.a_size)
    offset = 0
    for size in sides:
        end = offset + size
        for i in range(offset, end - 1):
            first = model._pair_rank(n, i, i + 1)
            mask[first : first + end - 1 - i] = True
        offset = end
    iu, iv = np.triu_indices(n, 1)
    return MultiGraph.from_arrays(n, iu[mask], iv[mask])


def _clique_cover_matches_reference(h, monkeypatch):
    sorted_on_arrival = []

    def recording(*args):
        sorted_on_arrival.append(real(*args))
        return sorted_on_arrival[-1]

    real = model._keys_increase
    monkeypatch.setattr(model, "_keys_increase", recording)
    for sides in ((h.a_size, h.b_size), (h.a_size,), ()):
        got = completion._with_cliques(h, sides)
        # the rows reach the constructor in key order, so it has nothing to sort
        assert sorted_on_arrival[-1] is True
        assert got == _reference_with_cliques(h, sides) == _reference_with_cliques_by_mask(h, sides)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.floats(0, 1), st.randoms(use_true_random=False))
@example(0, 5, 1.0, random.Random(0))  # a clique on B only
@example(5, 0, 1.0, random.Random(0))  # a clique on A only
def test_clique_cover_mask_matches_sorted_concatenation(a, b, density, rng):
    edges = tuple((x, y) for x in range(a) for y in range(b) if rng.random() < density)
    with pytest.MonkeyPatch.context() as mp:
        _clique_cover_matches_reference(BipartiteGraph(a, b, edges), mp)


def test_clique_cover_mask_across_blocks(monkeypatch):
    # 400 vertices: the two cliques' pairs span two blocks of the pair mask
    rng = random.Random(3)
    a, b = 40, 360
    edges = tuple(sorted({(rng.randrange(a), rng.randrange(b)) for _ in range(3000)}))
    _clique_cover_matches_reference(BipartiteGraph(a, b, edges), monkeypatch)


def _reference_ola_to_chain(g, k):
    """The per-copy tuple loop: each copy of uv takes u's next free slot, then
    v's, and every vertex's free slots are padded out one by one."""
    n, delta = g.n, g.max_degree
    slots_used = [0] * n
    edges = []

    def take_slot(v):
        b = v * delta + slots_used[v]
        slots_used[v] += 1
        edges.append((v, b))
        return b

    for u, v, mult in g.edges:
        for _ in range(mult):
            edges.append((v, take_slot(u)))
            edges.append((u, take_slot(v)))
    for v in range(n):
        while slots_used[v] < delta:
            take_slot(v)
    budget = k + delta * n * (n - 1) // 2 - 2 * g.m
    return BipartiteGraph(n, delta * n, tuple(edges)), budget, delta


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.integers(0, 3), st.integers(0, 12), st.randoms(use_true_random=False))
def test_ola_to_chain_matches_the_tuple_loop(n, top_mult, copies, rng):
    # multiplicities up to 3, vertices left isolated, and Delta = 0 when no pair is drawn
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    items = [(*rng.choice(pairs), rng.randint(1, top_mult)) for _ in range(copies)] if pairs and top_mult else []
    g = MultiGraph(n, items)
    ci, _ = completion.ola_to_chain(g, 7)
    graph, budget, delta = _reference_ola_to_chain(g, 7)
    assert (ci.graph, ci.budget, ci.source_delta) == (graph, budget, delta)
    assert ci.graph.edges == graph.edges
    with pytest.MonkeyPatch.context() as mp:
        _clique_cover_matches_reference(ci.graph, mp)


# -- the edge builders moved onto columns -------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.randoms(use_true_random=False))
def test_blowup_matches_triple_loop(n, t, rng):
    arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.4]
    d = Digraph(n, arcs)
    want = [(u * t + i, v * t + j, 1) for u, v, _ in d.arcs for i in range(t) for j in range(t)]
    assert blowup(d, t) == Digraph(n * t, want)


def _induced(g: MultiGraph, vertices) -> MultiGraph:
    """The subgraph on the distinct `vertices`, each relabelled by its position."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[np.asarray(vertices, dtype=np.int64)] = np.arange(len(vertices))
    u, v = label[g.u], label[g.v]
    keep = (u >= 0) & (v >= 0)
    return MultiGraph.from_arrays(len(vertices), u[keep], v[keep], g.mult[keep])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_induced_matches_dict_relabelling(n, rng):
    items = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3)) for _ in range(3 * n)] if n else []
    g = MultiGraph(n, items)
    vertices = rng.sample(range(n), rng.randint(0, n))
    idx = {v: i for i, v in enumerate(vertices)}
    want = [(idx[u], idx[v], m) for u, v, m in g.edges if u in idx and v in idx]
    assert _induced(g, vertices) == MultiGraph(len(idx), want)
    assert _induced(g, range(n)) == g


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_build_t_assembly_matches_tuple_union(seed, monkeypatch):
    built = []

    def recording(*args):
        graph, spec = real(*args)
        built.append(graph)
        return graph, spec

    real = sparseola.build_expander
    monkeypatch.setattr(sparseola, "build_expander", recording)
    g = cli.gen_regular_graph(6, 2, seed=seed)
    params = sparseola.derive_params(GapParams(0, 1), 2, "desk", {"z": 3, "phi": "1/3", "p_h": 1, "p_hi": 1})
    layout = sparseola.build_t(g, params, seed)
    h_graph, blocks = built[0], built[:0:-1]  # the blocks are built last to first
    n, bsize = g.n, layout.block_size
    edges = list(g.edges) + [(n + u, n + v, m) for u, v, m in h_graph.edges]
    for i, block in enumerate(blocks):
        off = n + i * bsize
        edges += [(off + u, off + v, m) for u, v, m in block.edges]
        edges += [(j, off + j % bsize, 1) for j in range(n)]
    assert layout.graph == MultiGraph(n + len(blocks) * bsize, edges)


@pytest.mark.parametrize(
    "n, d_g, overrides",
    [
        (4, 2, {"z": 2, "phi": "1/2", "p_h": 1, "p_hi": 1}),
        (6, 2, {"z": 3, "phi": "1/3", "p_h": 1, "p_hi": 1}),
        (6, 3, {"z": 2, "phi": "1/3", "p_h": 2, "p_hi": [1, 2]}),
        (8, 3, {"z": 1, "phi": "1/2", "p_h": "3/2", "p_hi": 1}),
        (18, 3, {"z": 2, "phi": 1, "p_h": 3, "p_hi": 2}),  # reduce_scale's sparse_certified shape
    ],
)
def test_h_graph_is_the_subgraph_on_h(n, d_g, overrides):
    for seed in range(3):
        g = cli.gen_regular_graph(n, d_g, seed=seed)
        params = sparseola.derive_params(GapParams(0, 1), d_g, "desk", dict(overrides))
        layout = sparseola.build_t(g, params, seed)
        assert layout.h_graph.n == params.z * layout.block_size
        assert layout.h_graph.m > 0
        assert layout.h_graph == _induced(layout.graph, layout.h_vertices)


# -- memory guards -------------------------------------------------------------


def _peak_bytes(run):
    """(result, the peak of what `run` allocates on top of what already exists)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_dense_complement_and_streamed_write_stay_within_budget(tmp_path):
    n = 2000
    # u and v only: every multiplicity is 1, so mult is a view that takes no memory
    out_bytes = 2 * math.comb(n, 2) * 8
    g, peak = _peak_bytes(lambda: complement(MultiGraph(n)))
    assert g.u.nbytes + g.v.nbytes == out_bytes
    # a ones row would take it to 1.5x and a full-length int64 key to 1.5x;
    # the triu_indices version peaked at 4x
    assert peak < 1.25 * out_bytes

    # one chunk's worth of the strings the whole-file writer held per row: a
    # head and a tail reference in an object array and again in a list, and
    # the row's text (at most 14 characters here) as str and as bytes
    chunk_strings = formats.CHUNK_ROWS * (4 * 8 + 2 * len("[1998,1999,1],"))
    state = cli.PipelineState(g, None)
    _, peak = _peak_bytes(lambda: cli.write_pipeline_outputs([state], {"steps": []}, str(tmp_path), {}))
    assert peak < chunk_strings  # the whole-file writer added about 22x this
    assert (tmp_path / "out.json").stat().st_size == len(_reference_edges_json(g))


def test_absent_pairs_of_a_dense_given_set_stay_within_budget():
    # half of the 1,999,000 pairs given, shuffled, as complete_to_tournament may hand over
    n, rng = 2000, np.random.default_rng(5)
    iu, iv = np.triu_indices(n, 1)
    pick = rng.permutation(np.flatnonzero(rng.random(iu.size) < 0.5))
    u, v = iu[pick], iv[pick]
    del iu, iv, pick
    rows, peak = _peak_bytes(lambda: _absent_pairs(n, u, v))
    # the one-byte pair mask rides on the output; the given rows' ramps laid
    # end to end as one int64 array took 2.6x
    assert peak < 1.3 * rows.nbytes


def test_streamed_bipartite_write_stays_within_budget(tmp_path):
    # K_{1000,1000}: 1,000,000 rows of at most "[999,999]," in 16-byte records
    a = b = 1000
    u, v = np.divmod(np.arange(a * b, dtype=np.int64), b)
    state = cli.PipelineState(BipartiteGraph.from_arrays(a, b, u, v), None)
    _, peak = _peak_bytes(lambda: cli.write_pipeline_outputs([state], {"steps": []}, str(tmp_path), {}))
    # two chunks' records: this chunk's and the copy `translate` sizes for
    # them, with room for small arrays; the writer's loop holds no written
    # chunk, and holding one would reach 3.05x, while a one-string writer
    # adds about 140x
    assert peak < 2.5 * formats.CHUNK_ROWS * 16
    # "[x,y]," for every pair, less the last comma, inside the opening and closing
    digits = sum(len(str(x)) for x in range(a))
    size = 4 * a * b + 2 * a * digits - 1 + len('{"a":1000,"b":1000,"edges":[]}\n')
    assert (tmp_path / "out.json").stat().st_size == size


def test_two_clique_cover_writes_its_rows_in_place():
    # the chain instance of reduce_scale's sparse_certified shape: |A| = 54,
    # |B| = 1,080 and 1,866 edges, covered by 585,957 rows
    g = cli.gen_regular_graph(18, 3, seed=0)
    params = sparseola.derive_params(GapParams(0, 1), 3, "desk", {"z": 2, "phi": 1, "p_h": 3, "p_hi": 2})
    source, _ = cli._drop_loops(sparseola.build_t(g, params, 5).graph)
    h = completion.ola_to_chain(source, 0)[0].graph
    cover, peak = _peak_bytes(lambda: completion.two_clique_cover(h))
    out_bytes = cover.u.nbytes + cover.v.nbytes
    assert (h.a_size, h.b_size, h.m, cover.m) == (54, 1080, 1866, 585957)
    # past the rows only the constructor's block-wise key check, about 1 MiB;
    # the pair-mask build peaked at 1.25x, and one more full-length int64 row
    # would reach 1.6x
    assert peak < 1.15 * out_bytes


def test_tiling_check_reads_a_one_byte_pair_mask():
    # a 20-vertex source at gap [0, 1/49] gives M = 98 and a 1,980-vertex output
    src = MultiGraph(20, _random_pairs(random.Random(2), 20, 60))
    out = maxcut_to_ola(GapInstance(src, GapParams(0, Fraction(1, 49)), "edges"))
    pairs = math.comb(out.graph.n, 2)
    assert out.graph.n == 1980
    holds, peak = _peak_bytes(lambda: star_identity_holds(out))
    assert holds
    # the mask and one block's int64 ranks; the sorted-key version held two
    # int64 keys per pair
    assert peak < pairs + 4 * 8 * model._PAIR_BLOCK
