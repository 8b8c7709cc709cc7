"""Instance file formats.

CNF travels as DIMACS (`p cnf n m`, clauses 0-terminated, 1-indexed signed
literals). Graphs travel as JSON: multigraphs and digraphs as
{"n": int, "edges": [[u, v, mult], ...]} (pairs unordered u <= v for graphs,
ordered for digraphs, 0-indexed), bipartite graphs as
{"a": int, "b": int, "edges": [[a, b], ...]}. Solution objects are JSON
arrays. Every writer emits canonical bytes so reruns are byte-identical.

All three edge kinds, multigraph, digraph and bipartite, stream:
`edges_json_chunks` yields a file's bytes as bytes-like chunks, built a chunk
of edge rows at a time by numpy byte kernels, with no per-row or per-vertex
Python except for rows whose multiplicity is not 1. The one-string writers
join that stream.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
)


def cnf_to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.var_count} {f.m}"]
    for clause in f.clauses:
        lits = " ".join(str(v + 1 if pol else -(v + 1)) for v, pol in clause)
        lines.append(f"{lits} 0")
    return "\n".join(lines) + "\n"


def dimacs_to_cnf(text: str) -> CnfFormula:
    var_count = None
    declared_m = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: bad problem line {line!r}")
            try:
                var_count, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad problem line {line!r}") from None
            continue
        if var_count is None:
            raise ParseError(f"line {lineno}: clause before problem line")
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer literal in {line!r}") from None
        if not nums or nums[-1] != 0:
            raise ParseError(f"line {lineno}: clause is not 0-terminated")
        lits = nums[:-1]
        if any(x == 0 for x in lits):
            raise ParseError(f"line {lineno}: embedded 0 inside clause")
        if not lits:
            raise ParseError(f"line {lineno}: empty clause")
        if any(abs(x) > var_count for x in lits):
            raise ParseError(f"line {lineno}: literal out of declared range")
        clauses.append(tuple((abs(x) - 1, x > 0) for x in lits))
    if var_count is None:
        raise ParseError("missing problem line")
    if declared_m is not None and declared_m != len(clauses):
        raise ParseError(
            f"problem line declares {declared_m} clauses, found {len(clauses)}"
        )
    return CnfFormula(var_count, tuple(clauses))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# edge rows per chunk of a streamed graph file
CHUNK_ROWS = 1 << 16


def _id_table(ids, head: bytes, tail: bytes) -> np.ndarray:
    """head + decimal id + tail for each of the sorted nonnegative int64 ids,
    written a digit column at a time and NUL-padded to a power-of-two width:
    numpy gathers items of 8 or 16 bytes on a fast path, and items of 6, 9,
    24 or 32 bytes one `memmove` at a time."""
    digits = len(str(ids[-1])) if len(ids) else 1
    h = len(head)
    rows = np.zeros((len(ids), 1 << (h + digits + len(tail) - 1).bit_length()), dtype=np.uint8)
    rows[:, :h] = np.frombuffer(head, np.uint8)
    lo = 0
    for d in range(1, digits + 1):  # the ids are sorted: each digit count is one run
        hi = int(np.searchsorted(ids, 10**d))
        x = ids[lo:hi]
        for col in range(h + d - 1, h - 1, -1):
            x, r = np.divmod(x, 10)
            rows[lo:hi, col] = r + ord("0")
        rows[lo:hi, h + d : h + d + len(tail)] = np.frombuffer(tail, np.uint8)
        lo = hi
    return rows.view(f"S{rows.shape[1]}")[:, 0]


def _rows_bytes(heads, tails, u, v, other, odd, last: bool) -> np.ndarray:
    """The rows of one chunk, head u then tail v, as a uint8 array; no comma
    after the last edge.

    Each row's head and tail are gathered by index into one fixed-width record
    of a structured buffer on a bytearray, and `bytearray.translate` then
    drops the NUL padding of the shorter strings. The rows at `other` have a
    multiplicity other than 1 and take their tail strings "v,mult]," from
    `odd`, built in Python; the tail field widens to fit them.
    """
    width = max(tails.itemsize, odd.itemsize)
    raw = bytearray(len(u) * (heads.itemsize + width))
    buf = np.frombuffer(raw, dtype=[("h", heads.dtype), ("t", f"S{width}")])
    buf["h"] = heads[u]
    buf["t"] = tails[v]
    buf["t"][other] = odd
    b = np.frombuffer(raw.translate(None, b"\0"), np.uint8)  # digits, commas and brackets are never NUL
    return b[:-1] if last else b


def _in_use(col, size: int, k: int):
    """(the sorted ids to label, col as indices into them): only the ids in
    use when the side has more vertices than the k edges."""
    if size > k:
        return np.unique(col, return_inverse=True)
    return np.arange(size, dtype=np.int64), col


def edges_json_chunks(g: MultiGraph | Digraph | BipartiteGraph):
    """Yield the bytes `_dump` gives for the graph's file as bytes-like chunks
    (bytes, or 1-D uint8 arrays for the edge rows), each row chunk holding at
    most CHUNK_ROWS edges: {"n": n, "edges": [[u, v, mult], ...]} for a
    multigraph or digraph, {"a": a, "b": b, "edges": [[a, b], ...]} for a
    bipartite graph."""
    u, v = g.u, g.v
    k = len(u)
    if isinstance(g, BipartiteGraph):
        (a_ids, u), (b_ids, v) = _in_use(u, g.a_size, k), _in_use(v, g.b_size, k)
        heads, tails = _id_table(a_ids, b"[", b","), _id_table(b_ids, b"", b"],")
        opening, closing = f'{{"a":{g.a_size},"b":{g.b_size},"edges":['.encode(), b"]}\n"
    else:
        if g.n > 2 * k:  # more vertices than endpoints: label only the ones in use
            ids, at = np.unique(np.concatenate((u, v)), return_inverse=True)
            u, v = at[:k], at[k:]
        else:
            ids = np.arange(g.n, dtype=np.int64)
        heads, tails = _id_table(ids, b"[", b","), _id_table(ids, b"", b",1],")
        opening, closing = b'{"edges":[', f'],"n":{g.n}}}\n'.encode()
    # the rows whose multiplicity is not 1, found once; a zero-stride ones column has none
    other = np.flatnonzero(g.mult != 1) if g.mult.strides != (0,) else np.empty(0, dtype=np.int64)
    bounds = np.searchsorted(other, np.arange(0, k + CHUNK_ROWS, CHUNK_ROWS)).tolist()
    yield opening
    for c, lo in enumerate(range(0, k, CHUNK_ROWS)):
        rows = slice(lo, lo + CHUNK_ROWS)
        at = other[bounds[c] : bounds[c + 1]]
        # dtype "S" keeps an empty list from becoming float64
        odd = np.array([f"{y},{m}]," for y, m in zip(g.v[at].tolist(), g.mult[at].tolist())], dtype="S")
        yield _rows_bytes(heads, tails, u[rows], v[rows], at - lo, odd, lo + CHUNK_ROWS >= k)
    yield closing


def _edges_json(g: MultiGraph | Digraph | BipartiteGraph) -> str:
    return b"".join(edges_json_chunks(g)).decode()


multigraph_to_json = digraph_to_json = bipartite_to_json = _edges_json


def _load(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    return obj


def _is_int(x) -> bool:
    """JSON integers only: a bool is an int to Python but not to the formats."""
    return isinstance(x, int) and not isinstance(x, bool)


def _edge_triples(obj: dict, what: str):
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise ParseError(f"{what}: missing edge list")
    out = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise ParseError(f"{what}: edge {i} must be [u, v] or [u, v, mult]")
        if not all(_is_int(x) for x in e):
            raise ParseError(f"{what}: edge {i} has non-integer entries")
        out.append(tuple(e))
    return out


def json_to_multigraph(text: str) -> MultiGraph:
    obj = _load(text, "multigraph")
    if not _is_int(obj.get("n")):
        raise ParseError("multigraph: missing vertex count 'n'")
    return MultiGraph(obj["n"], tuple(_edge_triples(obj, "multigraph")))


def json_to_digraph(text: str) -> Digraph:
    obj = _load(text, "digraph")
    if not _is_int(obj.get("n")):
        raise ParseError("digraph: missing vertex count 'n'")
    return Digraph(obj["n"], tuple(_edge_triples(obj, "digraph")))


def json_to_bipartite(text: str) -> BipartiteGraph:
    obj = _load(text, "bipartite")
    if not (_is_int(obj.get("a")) and _is_int(obj.get("b"))):
        raise ParseError("bipartite: missing side sizes 'a' and 'b'")
    pairs = _edge_triples(obj, "bipartite")
    if any(len(e) != 2 for e in pairs):
        raise ParseError("bipartite: edges are simple [a, b] pairs")
    return BipartiteGraph(obj["a"], obj["b"], pairs)


def witness_to_json(witness) -> str:
    if isinstance(witness, Ordering):
        return _dump(list(witness.perm))
    if isinstance(witness, Assignment):
        return _dump([bool(v) for v in witness.values])
    if isinstance(witness, VertexPartition):
        return _dump([bool(s) for s in witness.side])
    if isinstance(witness, tuple):
        return _dump([list(x) if isinstance(x, tuple) else x for x in witness])
    raise ParseError(f"no serialization for witness type {type(witness).__name__}")
