"""Instance file formats.

CNF travels as DIMACS (`p cnf n m`, clauses 0-terminated, 1-indexed signed
literals). Graphs travel as JSON: multigraphs and digraphs as
{"n": int, "edges": [[u, v, mult], ...]} (pairs unordered u <= v for graphs,
ordered for digraphs, 0-indexed), bipartite graphs as
{"a": int, "b": int, "edges": [[a, b], ...]}. Solution objects are JSON
arrays. Every writer emits canonical bytes so reruns are byte-identical.

Multigraph and digraph files are also available as a stream:
`edges_json_chunks` yields the same bytes as bytes-like chunks, built a chunk
of edge rows at a time by numpy byte kernels, with no per-row Python except
for rows whose multiplicity is not 1.
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


# edge rows per chunk of a streamed multigraph or digraph file
CHUNK_ROWS = 1 << 16


def _rows_bytes(heads, tails, u, v, g_v, mult, last: bool) -> np.ndarray:
    """The rows "[u,v,mult]," of one chunk as a uint8 array; no comma after the
    last edge.

    Each row's head and tail are gathered by index into one fixed-width record
    of a structured buffer, and the NUL padding of the shorter strings is then
    dropped. Only rows with a multiplicity other than 1 get their tail strings
    from Python, and the tail field widens to fit them.
    """
    other = np.flatnonzero(mult != 1)
    odd = np.array([f"{y},{m}]," for y, m in zip(g_v[other].tolist(), mult[other].tolist())], dtype="S")
    width = max(tails.itemsize, odd.itemsize)
    buf = np.empty(len(u), dtype=[("h", heads.dtype), ("t", f"S{width}")])
    # the indices are in range; mode "clip" lets take write into `out` unbuffered
    np.take(heads, u, out=buf["h"], mode="clip")
    if width == tails.itemsize:
        np.take(tails, v, out=buf["t"], mode="clip")
    else:
        buf["t"] = tails[v]
    buf["t"][other] = odd
    b = buf.view(np.uint8)
    b = b[b != 0]  # digits, commas and brackets are never NUL
    return b[:-1] if last else b


def edges_json_chunks(g: MultiGraph | Digraph):
    """Yield the bytes `_dump` gives for {"n": n, "edges": [[u, v, mult], ...]}
    as bytes-like chunks (bytes, or 1-D uint8 arrays for the edge rows), each
    row chunk holding at most CHUNK_ROWS edges."""
    u, v, mult = g.u, g.v, g.mult
    k = len(u)
    if g.n > 2 * k:  # more vertices than endpoints: label only the ones in use
        ids, at = np.unique(np.concatenate((u, v)), return_inverse=True)
        ids, u, v = ids.tolist(), at[:k], at[k:]
    else:
        ids = range(g.n)
    # fixed-width byte strings; dtype "S" keeps an empty list from becoming float64
    heads = np.array([f"[{x}," for x in ids], dtype="S")
    tails = np.array([f"{x},1]," for x in ids], dtype="S")
    yield b'{"edges":['
    for lo in range(0, k, CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        yield _rows_bytes(heads, tails, u[rows], v[rows], g.v[rows], mult[rows], lo + CHUNK_ROWS >= k)
    yield f'],"n":{g.n}}}\n'.encode()


def multigraph_to_json(g: MultiGraph) -> str:
    return b"".join(edges_json_chunks(g)).decode()


def digraph_to_json(d: Digraph) -> str:
    return b"".join(edges_json_chunks(d)).decode()


def bipartite_to_json(h: BipartiteGraph) -> str:
    return _dump({"a": h.a_size, "b": h.b_size, "edges": np.stack((h.u, h.v), axis=1).tolist()})


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
