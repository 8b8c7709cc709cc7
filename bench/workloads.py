"""Seeded workloads for the gapchain benchmark, and the checks behind their outcomes.

Each workload is a fixed list of items. `build(name, seed, workdir)` makes every
input from the seed (instance objects for direct oracle calls, instance and
pipeline files for `cli.main` calls) and returns the items; the timed part of
an item is only its call into `gapchain`. `Item.check` then compares the
outcome with the recorded reference for that seed, when there is one, and
re-evaluates it with the package's own evaluators.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gapchain import cli, fastchain, formats, oracle
from gapchain.model import (
    BipartiteGraph,
    GapParams,
    MultiGraph,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.satchain import GapInstance

WORKLOADS = ("solve_cap", "verify_chains", "reduce_scale")


# ---------------------------------------------------------------------------
# Instance generators of the benchmark's own
# ---------------------------------------------------------------------------


def random_simple_graph(n: int, m: int, rng: random.Random) -> MultiGraph:
    """m distinct edges drawn without replacement from all n(n-1)/2 pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return MultiGraph(n, tuple(sorted(rng.sample(pairs, m))))


def random_bipartite(a: int, b: int, m: int, rng: random.Random) -> BipartiteGraph:
    """m distinct A-B edges drawn without replacement."""
    pairs = [(x, y) for x in range(a) for y in range(b)]
    return BipartiteGraph(a, b, tuple(sorted(rng.sample(pairs, m))))


def caterpillar_with_leg(spine: int, leaves: int, rng: random.Random) -> MultiGraph:
    """Spine path, `leaves` pendant vertices per spine vertex, and a 2-edge leg
    at the middle spine vertex, under a random vertex labelling.

    The leg makes the tree a non-caterpillar, so the graph is chordal but not
    interval, and the clique-order backtracking in `is_interval` must exhaust
    its search before it answers False.
    """
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(leaves):
            edges.append((s, nxt))
            nxt += 1
    mid = spine // 2
    edges += [(mid, nxt), (nxt, nxt + 1)]
    n = nxt + 2
    label = list(range(n))
    rng.shuffle(label)
    return MultiGraph(n, tuple((label[u], label[v]) for u, v in edges))


def fvs_instance(n: int, m: int, seed: int, pipeline_seed: int):
    """`ssat_to_fvs(nae3_to_ssat(gen_e3cnf(n, m)))`: a balanced regular digraph
    whose minimum FVS is half its vertices when the formula is satisfiable, so
    the size-ordered enumeration runs through every smaller candidate set first.
    Random digraphs of the same size solve in milliseconds."""
    f = cli.gen_e3cnf(n, m, seed)
    gap = GapParams(0, 1)
    ssat, _ = fastchain.nae3_to_ssat(GapInstance(f, gap, "clauses"), pipeline_seed)
    return fastchain.ssat_to_fvs(ssat).instance


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One timed call. `run` returns the raw outcome; `check(outcome, ref)`
    returns (ok, record, note), where `record` is what the reference stores
    and `note` is "witness_changed" or "" ."""

    name: str
    kind: str  # "solve" | "verify" | "reduce"
    run: Callable[[], object]
    check: Callable[[object, object], tuple[bool, object, str]]
    workdir: Path | None = None

    def prepare(self):
        """Untimed: clear what a previous pass of this item left behind."""
        if self.kind == "reduce" and self.workdir is not None:
            shutil.rmtree(self.workdir / "out", ignore_errors=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _is_acyclic_without(d, removed) -> bool:
    gone = set(removed)
    succ = {v: [] for v in range(d.n) if v not in gone}
    indeg = {v: 0 for v in succ}
    for u, v, _ in d.arcs:
        if u in succ and v in succ:
            if u == v:
                return False
            succ[u].append(v)
            indeg[v] += 1
    stack = [v for v, k in indeg.items() if k == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return seen == len(succ)


def _chain_ok(h: BipartiteGraph, added) -> bool:
    return oracle.is_chain(BipartiteGraph(h.a_size, h.b_size, h.edges + tuple(added)))


def _chordal_ok(g: MultiGraph, fill) -> bool:
    return oracle.is_chordal(MultiGraph(g.n, g.edges + tuple(fill)))


def _balanced(p) -> bool:
    a, b = p.sizes()
    return a == b


# solver name -> evaluator(instance, witness, value): does the witness reach the value?
_SOLVE_EVAL = {
    "max_sat_exact": lambda x, w, v: count_satisfied(x, w) == v,
    "max_nae_exact": lambda x, w, v: count_nae_satisfied(x, w) == v,
    "max_cut_exact": lambda x, w, v: cut_size(x, w) == v,
    "min_bisection_exact": lambda x, w, v: _balanced(w) and cut_size(x, w) == v,
    "ola_exact": lambda x, w, v: cost_of_ordering(x, w) == v,
    "min_fill_in_exact": lambda x, w, v: len(w) == v and _chordal_ok(x, w),
    "min_chain_completion_exact": lambda x, w, v: len(w) == v and _chain_ok(x, w),
    "min_fas_exact": lambda x, w, v: oracle.backward_arc_weight(x, w) == v,
    "min_fvs_exact": lambda x, w, v: len(w) == v and _is_acyclic_without(x, w),
}


def _solve_item(name: str, instance) -> Item:
    evaluate = _SOLVE_EVAL[name]

    def run():
        # looked up at call time, so a traced pass sees the wrapper
        return getattr(oracle, name)(instance)

    def check(res, ref):
        record = {"value": res.value, "witness": _digest(formats.witness_to_json(res.witness))}
        ok = evaluate(instance, res.witness, res.value)
        if ref is not None and ref["value"] != res.value:
            ok = False
        changed = ok and ref is not None and ref["witness"] != record["witness"]
        return ok, record, "witness_changed" if changed else ""

    return Item(name, "solve", run, check)


def _interval_item(g: MultiGraph) -> Item:
    def run():
        return oracle.is_interval(g)

    def check(res, ref):
        # the leg makes the tree a non-caterpillar, which is never interval
        return res is False, {"value": res}, ""

    return Item("is_interval", "solve", run, check)


def _capture(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verify_item(name: str, argv: list[str]) -> Item:
    def run():
        return _capture(argv)

    def check(res, ref):
        code, out = res
        ok = code == 0 and "[FAIL]" not in out
        if ref is not None and ref["exit"] != code:
            ok = False
        return ok, {"exit": code}, ""

    return Item(name, "verify", run, check)


def _output_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _reduce_item(name: str, argv: list[str], workdir: Path, expect: Callable[[dict], bool]) -> Item:
    out_dir = workdir / "out"

    def run():
        return _capture(argv + ["--out", str(out_dir)])

    def check(res, ref):
        code, _ = res
        if code != 0:
            return False, {"exit": code}, ""
        files = _output_digests(out_dir)
        prov = json.loads((out_dir / "provenance.json").read_text())
        ok = expect(prov)
        if ref is not None and ref["files"] != files:
            ok = False
        return ok, {"exit": code, "files": files}, ""

    return Item(name, "reduce", run, check, workdir=workdir)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _write_inputs(workdir: Path, payload: str, suffix: str, spec: dict) -> tuple[str, str]:
    workdir.mkdir(parents=True, exist_ok=True)
    inp = workdir / f"in.{suffix}"
    inp.write_text(payload)
    pipe = workdir / "pipe.json"
    pipe.write_text(json.dumps(spec))
    return str(inp), str(pipe)


def _cnf_payload(n, m, seed):
    return formats.cnf_to_dimacs(cli.gen_e3cnf(n, m, seed)), "cnf"


def _graph_payload(g):
    return formats.multigraph_to_json(g), "json"


# Instance sizes. "full" is the benchmark; "toy" runs the same items on inputs
# small enough for the harness self-check.
SIZES = {
    "full": {
        "cnf": (20, 100), "cut_graph": (24, 120), "ola_graph": (20, 60), "fill_graph": (14, 28),
        "bipartite": (8, 24, 64), "digraph": (18, 54), "fvs_cnf": (4, 3), "caterpillar": (5, 4),
        "sat3_cnf": (6, 5), "dense_regular": (6, 3), "path": 5, "chain_k": 8, "fast_cnf": (4, 3),
        "dense_cnf": (3, 1), "dense_steps": 5, "sparse_regular": (18, 3), "tour_cnf": (6, 4),
        "blowup": 3,
    },
    "toy": {
        "cnf": (6, 10), "cut_graph": (8, 12), "ola_graph": (6, 8), "fill_graph": (6, 8),
        "bipartite": (3, 5, 8), "digraph": (5, 8), "fvs_cnf": (3, 1), "caterpillar": (3, 1),
        "sat3_cnf": (3, 2), "dense_regular": (4, 3), "path": 3, "chain_k": 2, "fast_cnf": (3, 1),
        "dense_cnf": (3, 1), "dense_steps": 4, "sparse_regular": (4, 2), "tour_cnf": (3, 1),
        "blowup": 2,
    },
}


def _solve_cap(master: random.Random, workdir: Path, size: dict) -> list[Item]:
    seeds = [master.randrange(2**32) for _ in range(9)]
    cnf = cli.gen_e3cnf(*size["cnf"], seeds[0])
    cut_graph = random_simple_graph(*size["cut_graph"], random.Random(seeds[1]))
    ola_graph = random_simple_graph(*size["ola_graph"], random.Random(seeds[2]))
    fill_graph = random_simple_graph(*size["fill_graph"], random.Random(seeds[3]))
    bip = random_bipartite(*size["bipartite"], random.Random(seeds[4]))
    dig = cli.gen_digraph(*size["digraph"], seeds[5])
    fvs = fvs_instance(*size["fvs_cnf"], seeds[6], seeds[7])
    cat = caterpillar_with_leg(*size["caterpillar"], random.Random(seeds[8]))
    return [
        _solve_item("max_sat_exact", cnf),
        _solve_item("max_nae_exact", cnf),
        _solve_item("max_cut_exact", cut_graph),
        _solve_item("min_bisection_exact", cut_graph),
        _solve_item("ola_exact", ola_graph),
        _solve_item("min_fill_in_exact", fill_graph),
        _solve_item("min_chain_completion_exact", bip),
        _solve_item("min_fas_exact", dig),
        _solve_item("min_fvs_exact", fvs),
        _interval_item(cat),
    ]


_SAT3 = {"gap": ["1/2", "1"], "steps": [
    {"name": "e3sat_to_nae4sat"}, {"name": "nae4sat_to_nae3sat"}, {"name": "nae3sat_to_multicut"}]}
_DENSE = {"gap": ["0", "1"], "steps": [{"name": "maxcut_to_ola"}]}
_SPARSE_DESK = {"gap": ["1/2", "1"], "steps": [
    {"name": "build_t", "params": {"d_g": 2, "mode": "desk",
                                   "overrides": {"z": 2, "phi": "1/2", "p_h": 1, "p_hi": 1}}},
    {"name": "ola_to_chain"}, {"name": "chain_to_threshold"}]}
_FAST_FVS = {"gap": ["1/2", "1"], "steps": [{"name": "nae3_to_ssat"}, {"name": "ssat_to_fvs"}]}


def _path_graph(n: int, rng: random.Random) -> MultiGraph:
    label = list(range(n))
    rng.shuffle(label)
    return MultiGraph(n, tuple((label[i], label[i + 1]) for i in range(n - 1)))


def _verify_chains(master: random.Random, workdir: Path, size: dict) -> list[Item]:
    seeds = [master.randrange(2**32) for _ in range(10)]
    chain_fillin = {"gap": ["0", "1"], "steps": [
        {"name": "ola_to_chain", "params": {"k": size["chain_k"]}}, {"name": "chain_to_fillin"}]}
    inputs = [
        ("sat3", _cnf_payload(*size["sat3_cnf"], seeds[0]), _SAT3),
        ("dense", _graph_payload(cli.gen_regular_graph(*size["dense_regular"], seeds[1])), _DENSE),
        ("chain_fillin", _graph_payload(_path_graph(size["path"], random.Random(seeds[2]))),
         chain_fillin),
        ("sparse_desk", _graph_payload(cli.gen_regular_graph(4, 2, seeds[3])), _SPARSE_DESK),
        ("fast_fvs", _cnf_payload(*size["fast_cnf"], seeds[4]), _FAST_FVS),
    ]
    items = []
    for i, (name, (payload, suffix), spec) in enumerate(inputs):
        inp, pipe = _write_inputs(workdir / name, payload, suffix, spec)
        # build_t at seed 4 is the desk layout the pipeline is sized for
        cli_seed = 4 if name == "sparse_desk" else seeds[5 + i]
        argv = ["verify", "--pipeline", pipe, "--in", inp, "--seed", str(cli_seed)]
        items.append(_verify_item(name, argv))
    return items


_DENSE72_STEPS = [
    {"name": "e3sat_to_nae4sat"}, {"name": "nae4sat_to_nae3sat"}, {"name": "nae3sat_to_multicut"},
    {"name": "multicut_to_simplecut"}, {"name": "maxcut_to_ola"}]


def _dense_shape(prov: dict) -> bool:
    """The separator clique has M copies of each source vertex (M = 72 at full size)."""
    last = prov["steps"][-1]
    if last["step"] != "maxcut_to_ola":
        return True
    return last["out"]["vertices"] == (last["M"] + 1) * last["in"]["vertices"]


def _sparse_shape(prov: dict) -> bool:
    """With phi = 1 and z = 2, T(G) has three times the source's vertices."""
    first = prov["steps"][0]
    return first["out"]["vertices"] == 3 * first["in"]["vertices"]


def _reduce_scale(master: random.Random, workdir: Path, size: dict) -> list[Item]:
    seeds = [master.randrange(2**32) for _ in range(6)]
    n, d = size["sparse_regular"]
    dense72 = {"gap": ["1/2", "1"], "steps": _DENSE72_STEPS[: size["dense_steps"]]}
    sparse_certified = {"gap": ["1/2", "1"], "steps": [
        {"name": "build_t", "params": {"d_g": d, "mode": "desk",
                                       "overrides": {"z": 2, "phi": 1, "p_h": 3, "p_hi": 2}}},
        {"name": "ola_to_chain", "params": {"k": 100000}}, {"name": "chain_to_fillin"}]}
    tournament = {"gap": ["1/2", "1"], "steps": [
        {"name": "nae3_to_ssat"}, {"name": "ssat_to_fvs"}, {"name": "fvs_to_fas"},
        {"name": "subdivide_arcs"}, {"name": "blowup", "params": {"t": size["blowup"]}},
        {"name": "complete_to_tournament"}]}
    inputs = [
        ("dense72", _cnf_payload(*size["dense_cnf"], seeds[0]), dense72, _dense_shape),
        ("sparse_certified", _graph_payload(cli.gen_regular_graph(n, d, seeds[1])),
         sparse_certified, _sparse_shape),
        ("tournament", _cnf_payload(*size["tour_cnf"], seeds[2]), tournament,
         lambda prov: len(prov["steps"]) == 6),
    ]
    items = []
    for i, (name, (payload, suffix), spec, expect) in enumerate(inputs):
        inp, pipe = _write_inputs(workdir / name, payload, suffix, spec)
        argv = ["reduce", "--pipeline", pipe, "--in", inp, "--seed", str(seeds[3 + i])]
        items.append(_reduce_item(name, argv, workdir / name, expect))
    return items


_GENERATORS = {
    "solve_cap": _solve_cap,
    "verify_chains": _verify_chains,
    "reduce_scale": _reduce_scale,
}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Item]:
    """Every input of `workload`, made from `seed` alone."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir, SIZES[size])
