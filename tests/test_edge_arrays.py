"""Array-backed MultiGraph and Digraph against the tuple implementation they replaced.

`_aggregate` (a Counter over (u, v) tuples) and `_reference_json` (json.dumps
over the triples) are the canonicalization and the writer the arrays replaced;
they live on here only as the reference. So do the tuple loops of the
evaluators and of `Digraph.has_antiparallel_pair`.
"""

import copy
import json
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import cli, formats
from gapchain.errors import DomainError
from gapchain.model import (
    MAX_VERTICES,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
    cost_of_ordering,
    cut_size,
)
from gapchain.oracle import backward_arc_weight

INT64_MAX = 2**63 - 1


def _aggregate(pairs, *, n, ordered):
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
        if not ordered and u > v:
            u, v = v, u
        counts[(u, v)] += mult
    return tuple((u, v, m) for (u, v), m in sorted(counts.items()))


def _reference_json(n, triples) -> str:
    obj = {"n": n, "edges": [[u, v, m] for u, v, m in triples]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _reference_degrees(n, triples):
    deg = [0] * n
    for u, v, mult in triples:
        deg[u] += mult
        if u != v:
            deg[v] += mult
    return deg


def _reference_cost_of_ordering(g, pi):
    pos = pi.positions()
    return sum(mult * abs(pos[u] - pos[v]) for u, v, mult in g.edges)


def _reference_cut_size(g, p):
    return sum(mult for u, v, mult in g.edges if p.side[u] != p.side[v])


def _reference_backward_arc_weight(d, pi):
    pos = pi.positions()
    return sum(mult for u, v, mult in d.arcs if u == v or pos[u] > pos[v])


def _reference_has_antiparallel_pair(d):
    keys = {(u, v) for u, v, _ in d.arcs}
    return any((v, u) in keys for u, v in keys if u != v)


def _outcome(fn):
    """The value, or the exception type and message."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), str(exc)


@st.composite
def edge_items(draw, bad=False):
    """(n, items): loops, repeats, both pair orders, pairs mixed with triples,
    and with `bad` an occasional endpoint or multiplicity out of range."""
    n = draw(st.integers(0, 8))
    lo, hi = (-2, n + 1) if bad else (0, n - 1)
    if hi < lo:
        return n, []
    vertex = st.integers(lo, hi)
    mult = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
    if bad:
        mult = st.one_of(mult, st.integers(-2, 0))
    item = st.one_of(st.tuples(vertex, vertex), st.tuples(vertex, vertex, mult))
    return n, draw(st.lists(item, max_size=25))


@settings(max_examples=150, deadline=None)
@given(edge_items(bad=True))
def test_errors_match_reference_for_the_first_bad_item(case):
    n, items = case
    for cls, ordered in ((MultiGraph, False), (Digraph, True)):
        got = _outcome(lambda: cls(n, items))
        want = _outcome(lambda: _aggregate(items, n=n, ordered=ordered))
        if want[0] == "ok":
            assert got[0] == "ok"
        else:
            assert got == want


@settings(max_examples=150, deadline=None)
@given(edge_items(), edge_items(), st.randoms(use_true_random=False))
def test_views_degrees_equality_and_writer_match_reference(case, other, rng):
    n, items = case
    ref_g = _aggregate(items, n=n, ordered=False)
    ref_d = _aggregate(items, n=n, ordered=True)
    g, d = MultiGraph(n, items), Digraph(n, items)

    assert g.edges == ref_g and d.arcs == ref_d
    assert all(type(x) is int for t in g.edges + d.arcs for x in t)
    assert g.m == sum(m for _, _, m in ref_g) == d.m
    assert g.degrees() == _reference_degrees(n, ref_g)
    assert d.outdegrees() == _reference_degrees(n, [(u, u, m) for u, _, m in ref_d])
    assert d.indegrees() == _reference_degrees(n, [(v, v, m) for _, v, m in ref_d])
    assert formats.multigraph_to_json(g) == _reference_json(n, ref_g)
    assert formats.digraph_to_json(d) == _reference_json(n, ref_d)

    # the same multiset in another order, with undirected pairs flipped
    shuffled = list(items)
    rng.shuffle(shuffled)
    flipped = [(e[1], e[0], *e[2:]) for e in shuffled]
    assert MultiGraph(n, flipped) == g and hash(MultiGraph(n, flipped)) == hash(g)
    assert Digraph(n, shuffled) == d and hash(Digraph(n, shuffled)) == hash(d)
    assert g != d

    n2, items2 = other
    same_g = (n, ref_g) == (n2, _aggregate(items2, n=n2, ordered=False))
    same_d = (n, ref_d) == (n2, _aggregate(items2, n=n2, ordered=True))
    assert (g == MultiGraph(n2, items2)) is same_g
    assert (d == Digraph(n2, items2)) is same_d

    cols = [np.array([e[i] if i < len(e) else 1 for e in items], dtype=np.int64) for i in range(3)]
    assert MultiGraph.from_arrays(n, *cols) == g
    assert Digraph.from_arrays(n, *cols) == d


def _holds_unit_view(g):
    """mult is the zero-stride read-only view of ones, and u and v share one
    (2, k) buffer with no ones row behind them."""
    k = len(g.u)
    return (g.mult.strides == (0,) and not g.mult.flags.writeable
            and g.u.flags.c_contiguous and g.v.flags.c_contiguous
            and g.mult.dtype == np.int64 and g.mult.shape == (k,) and g.m == k
            and (g.u.base if g.u.base is not None else g.u).nbytes == 16 * k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.data())
def test_unit_multiplicities_are_a_view_however_the_graph_is_built(n, data):
    vertex = st.integers(0, max(n - 1, 0))
    keys = sorted(data.draw(st.sets(st.tuples(vertex, vertex), max_size=20))) if n else []
    for cls in (MultiGraph, Digraph):
        pairs = keys if cls is Digraph else sorted({(min(e), max(e)) for e in keys})
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        if cls is MultiGraph:  # either order of an undirected pair
            pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
        u = np.array([e[0] for e in pairs], dtype=np.int64)
        v = np.array([e[1] for e in pairs], dtype=np.int64)
        g = cls(n, pairs)
        built = [
            cls(n, [(a, b, 1) for a, b in pairs]),
            cls(n, [(a, b, 1) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]),
            cls.from_arrays(n, u, v),
            cls.from_arrays(n, u, v, np.ones(len(u), dtype=np.int64)),
        ]
        for h in [g] + built:
            assert h == g and hash(h) == hash(g)
            view = h.edges if cls is MultiGraph else h.arcs
            assert view == tuple(sorted((*e, 1) for e in (keys if cls is Digraph else map(sorted, pairs))))
            assert _holds_unit_view(h)
        if not pairs:
            continue
        # a multiplicity of 2, given or merged from a repeat, is a column of its own
        first = pairs[0]
        doubled = [
            cls(n, [(*first, 2)] + pairs[1:]),
            cls(n, pairs + [first]),
            cls.from_arrays(n, u, v, np.r_[2, np.ones(len(u) - 1, dtype=np.int64)]),
        ]
        for h in doubled:
            assert h == doubled[0] and hash(h) == hash(doubled[0]) and h != g
            assert h.mult.strides != (0,) and not h.mult.flags.writeable
            assert all(c.flags.c_contiguous for c in (h.u, h.v, h.mult))
            assert h.m == len(pairs) + 1 and sorted(h.mult.tolist()) == [1] * (len(pairs) - 1) + [2]


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
def test_copies_stay_equal_hash_equal_and_simple(cls):
    # a copy holds a real column of ones, not the view, and must still match
    for g in (cls(4, [(0, 1), (1, 2), (3, 2)]), cls(4, [(0, 1, 2), (1, 2)])):
        for h in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert h == g and hash(h) == hash(g) and h.is_simple() == g.is_simple()
            assert h.m == g.m and (h.edges if cls is MultiGraph else h.arcs) == g._triples()
    assert cls(4, [(0, 1)]).is_simple() and not cls(4, [(0, 1, 2)]).is_simple()


def test_views_and_columns_are_read_only():
    g = MultiGraph(3, [(2, 0, 2), (1, 2)])
    assert g.edges == ((0, 2, 2), (1, 2, 1))
    with pytest.raises(ValueError):
        g.mult[0] = 5
    with pytest.raises(AttributeError):
        g.n = 4
    assert g.edges is g.edges


def test_from_arrays_copies_and_validates_its_columns():
    u, v = np.array([1, 0]), np.array([0, 2])
    g = MultiGraph.from_arrays(3, u, v)
    u[0] = 2
    assert g.edges == ((0, 1, 1), (0, 2, 1))
    with pytest.raises(DomainError, match="endpoint out of range"):
        MultiGraph.from_arrays(2, u, v)
    with pytest.raises(DomainError, match="integer columns"):
        MultiGraph.from_arrays(3, u.astype(float), v)
    with pytest.raises(DomainError, match="integer columns"):
        Digraph.from_arrays(3, u, v[:1])


def test_non_integer_and_misshapen_items_are_domain_errors():
    with pytest.raises(DomainError, match="integers"):
        MultiGraph(3, [(0, 1.5)])
    with pytest.raises(DomainError, match="integers"):
        Digraph(3, [(0, "1")])
    with pytest.raises(DomainError, match=r"\(u, v\) or \(u, v, mult\)"):
        MultiGraph(3, [(0, 1, 1, 1)])
    with pytest.raises(DomainError, match="exceeds"):
        MultiGraph(MAX_VERTICES + 1)


@pytest.mark.parametrize("cls", [MultiGraph, Digraph])
def test_int64_overflow_is_a_domain_error(cls):
    with pytest.raises(DomainError, match="multiplicity 9223372036854775808 does not fit"):
        cls(2, [(0, 1, 2**63)])
    with pytest.raises(DomainError, match=r"multiplicities of \(0, 1\) sum to 9223372036854775808"):
        cls(2, [(0, 1, 2**62), (0, 1, 2**62)])
    with pytest.raises(DomainError, match="edge count 9223372036854775808 does not fit"):
        cls(2, [(0, 1, 2**62), (1, 1, 2**62)])
    # the first bad item in input order is the one reported
    with pytest.raises(DomainError, match="endpoint out of range"):
        cls(2, [(0, 5), (0, 1, 2**70)])
    assert cls(2, [(0, 1, 2**62), (0, 1, 2**62 - 1)]).m == INT64_MAX


def test_solve_rejects_multiplicities_beyond_int64(tmp_path, capsys):
    for edges in ([[0, 1, 2**63]], [[0, 1, 2**62], [1, 0, 2**62]]):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "edges": edges}))
        assert cli.main(["solve", "--problem", "maxcut", "--in", str(path)]) == cli.EXIT_DOMAIN
        assert "does not fit in int64" in capsys.readouterr().err


def test_writer_labels_only_used_vertices_on_sparse_graphs():
    rng = random.Random(4)
    for n in (10, 1000, 10**6):
        items = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3)) for _ in range(4)]
        g = MultiGraph(n, items)
        assert formats.multigraph_to_json(g) == _reference_json(n, _aggregate(items, n=n, ordered=False))


@st.composite
def heavy_items(draw):
    """(n, items) as `edge_items`, plus at times one multiplicity up to what
    keeps the total inside int64, so products mult * distance can leave it."""
    n, items = draw(edge_items())
    if n and draw(st.booleans()):
        room = INT64_MAX - sum(e[2] if len(e) == 3 else 1 for e in items)
        big = draw(st.one_of(st.integers(2**62 - 2**20, 2**62), st.integers(1, room)))
        vertex = st.integers(0, n - 1)
        items.append((draw(vertex), draw(vertex), min(big, room)))
    return n, items


@settings(max_examples=200, deadline=None)
@given(heavy_items(), st.randoms(use_true_random=False))
def test_evaluators_match_their_tuple_loops(case, rng):
    n, items = case
    g, d = MultiGraph(n, items), Digraph(n, items)
    perm = list(range(n))
    rng.shuffle(perm)
    pi = Ordering(perm)
    part = VertexPartition([rng.random() < 0.5 for _ in range(n)])
    cost = cost_of_ordering(g, pi)
    assert type(cost) is int and cost == _reference_cost_of_ordering(g, pi)
    assert cut_size(g, part) == _reference_cut_size(g, part)
    assert backward_arc_weight(d, pi) == _reference_backward_arc_weight(d, pi)
    assert d.has_antiparallel_pair() is _reference_has_antiparallel_pair(d)


def test_cost_of_ordering_stays_exact_beyond_int64():
    g = MultiGraph(3, [(0, 2, 2**62), (0, 1)])
    assert cost_of_ordering(g, Ordering([0, 1, 2])) == 2**63 + 1
    assert cost_of_ordering(g, Ordering([2, 0, 1])) == 2**62 + 1
    assert cut_size(g, VertexPartition([True, False, False])) == 2**62 + 1
    d = Digraph(3, [(2, 0, 2**62), (1, 1, 2**61), (0, 1)])
    assert backward_arc_weight(d, Ordering([0, 1, 2])) == 2**62 + 2**61


def test_antiparallel_pair_edge_cases():
    assert not Digraph(0).has_antiparallel_pair()
    assert not Digraph(2, [(0, 1)]).has_antiparallel_pair()
    assert not Digraph(1, [(0, 0, 3)]).has_antiparallel_pair()
    assert not Digraph(3, [(0, 0), (1, 1), (0, 1), (2, 2)]).has_antiparallel_pair()
    assert Digraph(3, [(2, 1), (0, 0), (1, 2, 4)]).has_antiparallel_pair()
    # the reverse key of the last arc sorts past every key
    assert not Digraph(3, [(0, 1), (2, 1)]).has_antiparallel_pair()
