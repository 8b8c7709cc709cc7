"""Pipeline driver, instance generators, and the oracle-backed verifier.

Exit codes: 0 success/verified, 1 usage, 2 parse error, 3 domain error,
4 cap exceeded (verification: "unverifiable at this size"), 5 verification
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import completion, denseola, fastchain, formats, oracle, satchain, sparseola
from .errors import (
    CapExceededError,
    ConstructionError,
    DomainError,
    GapChainError,
    ParseError,
)
from .expander import build_expander
from .model import (
    BipartiteGraph,
    CnfFormula,
    Digraph,
    GapInstance,
    GapParams,
    MultiGraph,
    complement,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CAP = 4
EXIT_VERIFY = 5


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {text!r}; use integers or 'p/q'") from None


# ---------------------------------------------------------------------------
# Pipeline machinery
# ---------------------------------------------------------------------------


_KINDS = {CnfFormula: "cnf", MultiGraph: "multigraph", Digraph: "digraph", BipartiteGraph: "bipartite"}


@dataclass
class PipelineState:
    payload: object
    gap: GapParams | None
    meta: dict = field(default_factory=dict)
    lift: Callable | None = None  # output witness -> input witness, if the step has one
    _solved: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def kind(self) -> str:
        return _KINDS[type(self.payload)]

    def sizes(self) -> dict:
        p = self.payload
        if isinstance(p, CnfFormula):
            return {"variables": p.var_count, "clauses": p.m}
        if isinstance(p, MultiGraph):
            return {"vertices": p.n, "edges": p.m}
        if isinstance(p, Digraph):
            return {"vertices": p.n, "arcs": p.m}
        return {"a": p.a_size, "b": p.b_size, "edges": p.m}

    def gap_instance(self, unit_kind: str) -> GapInstance:
        if self.gap is None:
            raise DomainError("this step needs a gap; set one in the pipeline spec")
        return GapInstance(self.payload, self.gap, unit_kind)

    def solve(self, name: str) -> oracle.SolveResult:
        """The exact oracle `name` on this payload, run at most once per state."""
        if name not in self._solved:
            # looked up at call time so a patched or wrapped oracle is the one used
            self._solved[name] = getattr(oracle, name)(self.payload)
        return self._solved[name]


def _int_param(params: dict, key: str, step: str) -> int:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{step}: params.{key} must be an integer, got {value!r}")
    return value


def _lifted_step(reduction, unit_kind: str):
    def run(state, params, seed):
        out, lift = reduction(state.gap_instance(unit_kind))
        return PipelineState(out.instance, out.gap, lift=lift), {}

    return run


def _gap_step(reduction, unit_kind: str):
    def run(state, params, seed):
        out = reduction(state.gap_instance(unit_kind))
        return PipelineState(out.instance, out.gap), {}

    return run


def _step_maxcut_to_ola(state, params, seed):
    out = denseola.maxcut_to_ola(state.gap_instance("edges"))
    meta = {
        "budget": out.budget,
        "M": out.M,
        "clique": [out.clique_vertices.start, out.clique_vertices.stop],
        "threshold_ceiled": out.threshold_ceiled,
    }
    new = PipelineState(out.graph, state.gap, dict(meta))
    new.meta["dense_output"] = out
    return new, meta


def _drop_loops(g: MultiGraph) -> tuple[MultiGraph, int]:
    """g less its loops, and the loop copies dropped. Loops cost 0 in every
    arrangement, so (G, k) and (G - loops, k) are the same decision problem."""
    loops = g.u == g.v
    dropped = int(g.mult[loops].sum())
    if dropped:
        keep = ~loops
        g = MultiGraph.from_arrays(g.n, g.u[keep], g.v[keep], g.mult[keep])
    return g, dropped


def _step_ola_to_chain(state, params, seed):
    if "k" in params:
        k = _int_param(params, "k", "ola_to_chain")
    elif "budget" in state.meta:
        k = int(state.meta["budget"])
    else:
        raise DomainError("ola_to_chain needs a budget: pass params.k")
    g, loops_dropped = _drop_loops(state.payload)
    ci, _ = completion.ola_to_chain(g, k)
    new = PipelineState(ci.graph, state.gap, {"budget": ci.budget, "k": k, "chain_instance": ci})
    meta = {"budget": ci.budget, "delta": ci.source_delta}
    if loops_dropped:
        meta["loops_dropped"] = loops_dropped
    return new, meta


def _step_chain_completion(builder):
    def run(state, params, seed):
        ci = state.meta.get("chain_instance")
        if ci is None:
            raise DomainError("this step must follow ola_to_chain")
        graph, budget = builder(ci)
        return PipelineState(graph, state.gap, {"budget": budget}), {"budget": budget}

    return run


def _step_nae3_to_ssat(state, params, seed):
    out, d = fastchain.nae3_to_ssat(state.gap_instance("clauses"), seed)
    return PipelineState(out.instance, out.gap), {"d": d}


def _step_subdivide_arcs(state, params, seed):
    out = fastchain.subdivide_arcs(state.payload)
    gap = state.gap.map(lambda x: x / 2) if state.gap is not None else None
    return PipelineState(out, gap), {}


def _step_blowup(state, params, seed):
    if "t" not in params:
        raise DomainError("blowup needs params.t")
    t = _int_param(params, "t", "blowup")
    core = state.payload
    out = fastchain.blowup(core, t)
    return PipelineState(out, state.gap, {"blow_factor": t, "core_arcs": core.m}), {"t": t}


def _step_complete_to_tournament(state, params, seed):
    out, random_arcs = fastchain.complete_to_tournament(state.payload, seed)
    step_meta = {"random_arcs": random_arcs}
    if state.gap is not None and "blow_factor" in state.meta:
        thresholds = fastchain.tournament_thresholds(
            state.gap, state.meta["blow_factor"], state.meta["core_arcs"], random_arcs
        )
        step_meta["thresholds"] = [str(x) for x in thresholds]
    return PipelineState(out, state.gap, {"random_arcs": random_arcs}), step_meta


def _step_build_t(state, params, seed):
    if "d_g" not in params:
        raise DomainError("build_t needs params.d_g")
    if state.gap is None:
        raise DomainError("build_t needs a gap; set one in the pipeline spec")
    mode = params.get("mode", sparseola.DESK)
    d_g = _int_param(params, "d_g", "build_t")
    sp = sparseola.derive_params(state.gap, d_g, mode, params.get("overrides"))
    layout = sparseola.build_t(state.payload, sp, seed)
    meta = {"sparse_layout": layout}
    step_meta = {
        "z": sp.z,
        "phi": str(sp.phi),
        "block_size": layout.block_size,
        "d_h": layout.params.d_h,
        "d_hi": list(layout.params.d_hi),
    }
    if mode == sparseola.DESK:
        # opportunistic: the budget needs OLA(H) within the cap and an integral alpha*m
        try:
            ola_h = oracle.ola_exact(layout.h_graph)
            budget = sparseola.compute_budget(layout, ola_h.value)
            meta.update({"budget": budget, "ola_h": ola_h})
            step_meta.update({"ola_h": ola_h.value, "budget": budget})
        except CapExceededError:
            step_meta["budget"] = "unavailable: H exceeds the exact arrangement cap"
        except DomainError as exc:
            step_meta["budget"] = f"unavailable: {exc}"
    return PipelineState(layout.graph, state.gap, meta), step_meta


# ---------------------------------------------------------------------------
# Stepwise verification against the oracles
# ---------------------------------------------------------------------------
#
# A verifier takes the states before and after its step and returns or
# yields (label, ok) checks; ok None marks a reported value, not an
# assertion, and a reported label that says "not checked" names a claim left
# unchecked. Checks yielded before an oracle refuses its input stay reported.

# oracle -> the GapInstance unit kind its gap fractions multiply
_GAP_UNITS = {"max_sat_exact": "clauses", "max_nae_exact": "clauses", "max_cut_exact": "edges",
              "min_fvs_exact": "vertices", "min_fas_exact": "arcs"}


def _identity(in_oracle, out_oracle, label, terms, evaluator=None):
    """Checks out == a*m + b*in + c on the optima, with (a, b, c) =
    terms(prev, cur) and m the input's size. Where both states carry a gap
    counted in units (u in, u' out), each end x must map to x' with
    x'*u' == a*m + b*x*u + c; that check runs before any oracle. The output
    is solved first, so an output past its cap costs no solve of the input.
    Given an evaluator, the step's lifter must map an optimal output witness
    to an optimal input witness."""

    def verify(prev, cur):
        a, b, c = terms(prev, cur)
        m = prev.payload.m
        units = _GAP_UNITS.get(in_oracle), _GAP_UNITS.get(out_oracle)
        if None not in (prev.gap, cur.gap) + units:
            u, u_out = (GapInstance(s.payload, s.gap, k).unit for s, k in zip((prev, cur), units))
            ends = zip((prev.gap.alpha, prev.gap.beta), (cur.gap.alpha, cur.gap.beta))
            ok = all(y * u_out == a * m + b * x * u + c for x, y in ends)
            yield f"gap {prev.gap} -> {cur.gap}: x'*u' == a*m + b*x*u + c", ok
        res = cur.solve(out_oracle)
        k_in = prev.solve(in_oracle).value
        yield label, res.value == a * m + b * k_in + c
        if evaluator is not None:
            ok = evaluator(prev.payload, cur.lift(res.witness)) == k_in
            yield f"lifted witness achieves {in_oracle.removesuffix('_exact')}(in)", ok

    return verify


def _checks(*verifiers):
    """One verifier yielding the checks of each of `verifiers` in turn."""
    return lambda prev, cur: itertools.chain.from_iterable(v(prev, cur) for v in verifiers)


def _verify_maxcut_to_ola(prev, cur):
    # the ledger: M and the budget rebuilt from the input's gap and sizes
    gap, n, m = prev.gap, prev.payload.n, prev.payload.m
    M = math.ceil(2 / (gap.beta - gap.alpha))
    yield "M == ceil(2/(beta-alpha))", cur.meta["M"] == M
    budget = math.comb((M + 1) * n + 1, 3) - math.ceil(gap.beta * m) * M * n
    yield "budget == C((M+1)n+1, 3) - ceil(beta*m)*M*n", cur.meta["budget"] == budget
    out = cur.meta["dense_output"]
    yield "pair multiset tiles the complete graph", denseola.star_identity_holds(out)
    cut = prev.solve("max_cut_exact")
    arr = cur.solve("ola_exact")
    if cut.value >= math.ceil(gap.beta * m):
        yield "cut >= beta*m implies OLA <= budget", arr.value <= out.budget
    if m > 0 and arr.value <= out.budget:
        recovered = denseola.cut_from_ordering(out, arr.witness)
        yield "OLA <= budget implies cut > alpha*m", cut.value > gap.alpha * m
        yield "recovered cut beats alpha*m", cut_size(prev.payload, recovered) > gap.alpha * m


def _chain_shift(g: MultiGraph) -> int:
    """Delta*n(n-1)/2 - 2m on g less its loops: what ola_to_chain adds to OLA."""
    g, _ = _drop_loops(g)
    return g.max_degree * g.n * (g.n - 1) // 2 - 2 * g.m


def _verify_chain_budget(prev, cur):
    ok = cur.meta["budget"] == cur.meta["k"] + _chain_shift(prev.payload)
    return [("budget == k + const", ok)]


def _verify_fill_witness(prev, cur):
    fill = cur.solve("min_fill_in_exact").witness
    return [
        ("fill witness is interval", completion.verify_completion(cur.payload, fill, "interval")),
        ("fill witness is proper interval", completion.verify_completion(cur.payload, fill, "proper_interval")),
    ]


_verify_chain_to_fillin = _checks(
    lambda prev, cur: [("budget == budget(in)", cur.meta["budget"] == prev.meta["budget"])],
    _identity("min_chain_completion_exact", "min_fill_in_exact", "min_fill_in == min_chain", lambda *_: (0, 1, 0)),
    _verify_fill_witness,
)


def _verify_ssat_to_fvs(prev, cur):
    fvs = cur.solve("min_fvs_exact")
    sat = prev.solve("max_sat_exact").value
    half = cur.payload.n // 2
    return [
        ("min_fvs >= n/2", fvs.value >= half),
        ("min_fvs == n/2 iff fully satisfiable", (fvs.value == half) == (sat == prev.payload.m)),
    ]


def _verify_complete_to_tournament(prev, cur):
    core = prev.solve("min_fas_exact").value
    tour = cur.solve("min_fas_exact").value
    r = cur.meta.get("random_arcs", 0)
    return [("fas(core) <= fas(T) <= fas(core) + |R|", core <= tour <= core + r)]


def _verify_build_t(prev, cur):
    layout = cur.meta["sparse_layout"]
    n = len(layout.g_vertices)
    checks = [
        ("vertex count n + Z*ceil(phi n)", layout.graph.n == n + layout.params.z * layout.block_size),
        ("degree bound", layout.graph.max_degree <= layout.params.degree_bound()),
    ]
    budget = cur.meta.get("budget")
    if budget is None:
        return checks + [("no budget, so cost <= budget was not checked (reported)", None)]
    bis = prev.solve("min_bisection_exact")
    alpha_m = prev.gap.alpha * prev.payload.m
    if bis.value <= alpha_m:
        pi_h = cur.meta["ola_h"].witness
        arr = sparseola.ordering_from_bisection(layout, bis.witness, pi_h)
        checks.append(
            ("bisection <= alpha*m gives cost <= budget", cost_of_ordering(layout.graph, arr) <= budget)
        )
    # desk-scale report, not an assertion: cut recovered from an optimal
    # arrangement vs the true optimum
    try:
        full = cur.solve("ola_exact")
        recovered = sparseola.bisection_from_ordering(layout, full.witness)
        checks.append(
            (
                f"recovered balanced cut {cut_size(prev.payload, recovered)} "
                f"vs optimum {bis.value} (reported)",
                None,
            )
        )
    except CapExceededError:
        pass
    return checks


# chain completion has two target graphs: on the union of two cliques the
# fill-in, interval and proper interval completions coincide, and on one
# clique plus an independent set the threshold and trivially perfect ones
_TO_FILLIN = ("bipartite", "multigraph", _step_chain_completion(completion.chain_to_fillin), _verify_chain_to_fillin)
_TO_THRESHOLD = ("bipartite", "multigraph", _step_chain_completion(completion.chain_to_threshold), None)

# name -> (input kind, output kind, runner, verifier or None); a step whose
# optima obey out == a*m + b*in + c declares its (a, b, c) here, once
STEPS = {
    "e3sat_to_nae4sat": ("cnf", "cnf", _lifted_step(satchain.e3sat_to_nae4sat, "clauses"), _identity(
        "max_sat_exact", "max_nae_exact", "max_nae(out) == max_sat(in)", lambda *_: (0, 1, 0), count_satisfied)),
    "nae4sat_to_nae3sat": ("cnf", "cnf", _lifted_step(satchain.nae4sat_to_nae3sat, "clauses"), _identity(
        "max_nae_exact", "max_nae_exact", "max_nae(out) == m + max_nae(in)", lambda *_: (1, 1, 0),
        count_nae_satisfied)),
    "nae3sat_to_multicut": ("cnf", "multigraph", _lifted_step(satchain.nae3sat_to_multicut, "clauses"), _identity(
        "max_nae_exact", "max_cut_exact", "max_cut(out) == 3m + 2 max_nae(in)", lambda *_: (3, 2, 0),
        count_nae_satisfied)),
    "multicut_to_simplecut": ("multigraph", "multigraph", _lifted_step(satchain.multicut_to_simplecut, "edges"), _identity(
        "max_cut_exact", "max_cut_exact", "max_cut(out) == 2m + max_cut(in)", lambda *_: (2, 1, 0), cut_size)),
    "maxcut_to_ola": ("multigraph", "multigraph", _step_maxcut_to_ola, _verify_maxcut_to_ola),
    "ola_to_chain": ("multigraph", "bipartite", _step_ola_to_chain, _checks(
        _verify_chain_budget,
        _identity("ola_exact", "min_chain_completion_exact", "min_chain == OLA + const",
                  lambda prev, cur: (0, 1, _chain_shift(prev.payload))))),
    "chain_to_fillin": _TO_FILLIN,
    "chain_to_interval": _TO_FILLIN,
    "chain_to_proper_interval": _TO_FILLIN,
    "chain_to_threshold": _TO_THRESHOLD,
    "chain_to_trivially_perfect": _TO_THRESHOLD,
    "build_t": ("multigraph", "multigraph", _step_build_t, _verify_build_t),
    "nae3_to_ssat": ("cnf", "cnf", _step_nae3_to_ssat, _identity(
        "max_nae_exact", "max_sat_exact", "max_sat(out) == (1+3d)m + max_nae(in)",
        lambda prev, cur: (1 + 3 * fastchain.audit_ssat_profile(cur.payload), 1, 0))),
    "ssat_to_fvs": ("cnf", "digraph", _gap_step(fastchain.ssat_to_fvs, "clauses"), _verify_ssat_to_fvs),
    "fvs_to_fas": ("digraph", "digraph", _gap_step(fastchain.fvs_to_fas, "vertices"), _identity(
        "min_fvs_exact", "min_fas_exact", "min_fas(out) == min_fvs(in)", lambda *_: (0, 1, 0))),
    "subdivide_arcs": ("digraph", "digraph", _step_subdivide_arcs, _identity(
        "min_fas_exact", "min_fas_exact", "min_fas preserved", lambda *_: (0, 1, 0))),
    "blowup": ("digraph", "digraph", _step_blowup, _identity(
        "min_fas_exact", "min_fas_exact", "fas(out) == t^2 fas(in)",
        lambda prev, cur: (0, cur.meta["blow_factor"] ** 2, 0))),
    "complete_to_tournament": ("digraph", "digraph", _step_complete_to_tournament, _verify_complete_to_tournament),
}

# kind -> (reader, writer, file extension); a writer returns a file's whole
# text or an iterator over its bytes-like chunks
_FORMATS = {
    "cnf": (formats.dimacs_to_cnf, formats.cnf_to_dimacs, "cnf"),
    "multigraph": (formats.json_to_multigraph, formats.edges_json_chunks, "json"),
    "digraph": (formats.json_to_digraph, formats.edges_json_chunks, "json"),
    "bipartite": (formats.json_to_bipartite, formats.edges_json_chunks, "json"),
}


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file; an unreadable or undecodable file is a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from None


def load_pipeline_spec(path: str) -> dict:
    try:
        spec = json.loads(_read_text(path, "pipeline spec"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"pipeline spec: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(spec, dict) or not isinstance(spec.get("steps"), list):
        raise ParseError("pipeline spec needs to be an object with a 'steps' list")
    if "gap" in spec and not (isinstance(spec["gap"], list) and len(spec["gap"]) == 2):
        raise ParseError("pipeline spec: 'gap' must be a list [alpha, beta]")
    for step in spec["steps"]:
        name = step.get("name") if isinstance(step, dict) else None
        if not isinstance(name, str) or name not in STEPS:
            raise ParseError(f"unknown pipeline step {name!r}")
        params = step.get("params", {})
        if not isinstance(params, dict) or not isinstance(params.get("overrides", {}), dict):
            raise ParseError(f"step {name}: 'params' and 'params.overrides' must be objects")
    return spec


def run_pipeline(spec: dict, input_path: str, seed: int):
    """Apply the steps in order; returns (final state, states, provenance)."""
    steps = spec["steps"]
    first_kind = STEPS[steps[0]["name"]][0] if steps else None
    gap = None
    if "gap" in spec:
        lo, hi = spec["gap"]
        gap = GapParams(parse_fraction(str(lo)), parse_fraction(str(hi)))
    if first_kind is None:
        # empty pipeline: default to multigraph identity
        first_kind = "multigraph"
    state = PipelineState(_FORMATS[first_kind][0](_read_text(input_path, "input")), gap)
    states = [state]
    master = random.Random(seed)
    provenance = {"seed": seed, "steps": []}
    for step in steps:
        name = step["name"]
        params = step.get("params", {})
        in_kind, out_kind, runner = STEPS[name][:3]
        step_seed = master.randrange(2**32)
        if state.kind != in_kind:
            raise DomainError(
                f"step {name} expects a {in_kind} instance, have {state.kind}"
            )
        before = state.sizes()
        state, meta = runner(state, params, step_seed)
        if state.kind != out_kind:  # pragma: no cover - registry invariant
            raise AssertionError(f"step {name} produced {state.kind}")
        record = {
            "step": name,
            "params": params,
            "seed": step_seed,
            "in": before,
            "out": state.sizes(),
            "gap": [str(state.gap.alpha), str(state.gap.beta)] if state.gap else None,
        }
        record.update({k: v for k, v in meta.items()})
        provenance["steps"].append(record)
        states.append(state)
    return state, states, provenance


def _write_instance(kind: str, payload, path):
    """Write the bytes of the kind's _FORMATS writer to path."""
    text = _FORMATS[kind][1](payload)
    with Path(path).open("wb") as f:
        for data in (text.encode(),) if isinstance(text, str) else text:
            f.write(data)
            del data  # not held while the next chunk is built


def _link_or_copy(src: Path, dst: Path):
    """Make dst a hard link to src, replacing any file at dst; copy src
    where the file system refuses the link."""
    dst.unlink(missing_ok=True)
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


def write_pipeline_outputs(states, spec, out_dir: str, provenance: dict):
    """Write every state's step file and provenance.json; out.{ext} is the
    last step file again, linked rather than written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ["input"] + [s["name"] for s in spec["steps"]]
    for i, (state, name) in enumerate(zip(states, names)):
        path = out / f"step_{i:02d}_{name}.{_FORMATS[state.kind][2]}"
        _write_instance(state.kind, state.payload, path)
    _link_or_copy(path, out / f"out{path.suffix}")
    (out / "provenance.json").write_text(
        json.dumps(provenance, indent=2, sort_keys=True, default=str) + "\n"
    )


def verify_pipeline(spec: dict, states: list):
    """Check every step's correspondence identity on the states `run_pipeline`
    returned.

    Returns (all_ok, any_unverifiable, report lines (step index, name, label, ok))."""
    report = []
    all_ok = True
    any_cap = False
    for i, step in enumerate(spec["steps"]):
        name = step["name"]
        verifier = STEPS[name][3]
        if verifier is None:
            report.append((i, name, "no verifier", None))
            continue
        try:
            for label, ok in verifier(states[i], states[i + 1]):
                report.append((i, name, label, ok))
                if ok is False:  # None entries are informational reports
                    all_ok = False
        except CapExceededError as exc:
            report.append((i, name, f"unverifiable at this size ({exc})", None))
            any_cap = True
    return all_ok, any_cap, report


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_e3cnf(n: int, m: int, seed: int) -> CnfFormula:
    """Random exact-3-CNF with three distinct variables per clause."""
    if n < 3 or m < 0:
        raise DomainError("gen e3cnf needs n >= 3 and m >= 0")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vars_ = rng.sample(range(n), 3)
        clauses.append(tuple((v, rng.random() < 0.5) for v in sorted(vars_)))
    return CnfFormula(n, tuple(clauses))


_REGULAR_TRIES = 1000  # rejection samples, then pairing restarts, per graph


def gen_regular_graph(n: int, d: int, seed: int) -> MultiGraph:
    """Random simple d-regular graph by rejection-sampled stub matching.

    Rejection succeeds with probability about exp(-(d^2 - 1)/4), so after
    _REGULAR_TRIES failures the same generator falls back to pairing with
    restarts (Steger-Wormald 1999), run on the complement when d > (n - 1)/2.
    Every (n, d, seed) that rejection answers keeps its graph.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"no simple {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    for _ in range(_REGULAR_TRIES):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(keys) != len(pairs):
            continue
        return MultiGraph(n, tuple((u, v, 1) for u, v in sorted(keys)))
    flip = 2 * d > n - 1
    keys = _pair_stubs(n, n - 1 - d if flip else d, rng)
    g = MultiGraph(n, tuple((u, v, 1) for u, v in keys))
    return complement(g) if flip else g


def _pair_stubs(n: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Edge set of a simple d-regular graph: random stub pairs that would make a
    loop or a repeated edge go back to be paired again, and the whole pairing
    restarts once no two stubs left can form a new edge."""
    for _ in range(_REGULAR_TRIES):
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            rng.shuffle(stubs)
            rest = []
            for u, v in zip(stubs[::2], stubs[1::2]):
                key = (min(u, v), max(u, v))
                if u != v and key not in edges:
                    edges.add(key)
                else:
                    rest += [u, v]
            if rest and all(p in edges for p in itertools.combinations(sorted(set(rest)), 2)):
                break
            stubs = rest
        else:
            return edges
    raise ConstructionError(
        f"failed to sample a simple {d}-regular graph on {n} vertices in {_REGULAR_TRIES} tries"
    )


def gen_digraph(n: int, m: int, seed: int) -> Digraph:
    """Random simple digraph: m distinct non-loop arcs without replacement."""
    if n < 0 or not 0 <= m <= n * (n - 1):
        raise DomainError(f"gen digraph needs n >= 0 and 0 <= m <= n(n-1), got n={n}, m={m}")
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = rng.sample(pool, m)
    return Digraph(n, tuple((u, v, 1) for u, v in sorted(arcs)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# problem -> (input kind, oracle); the reader is the kind's in _FORMATS
_SOLVERS = {
    "ola": ("multigraph", oracle.ola_exact),
    "maxcut": ("multigraph", oracle.max_cut_exact),
    "bisection": ("multigraph", oracle.min_bisection_exact),
    "fillin": ("multigraph", oracle.min_fill_in_exact),
    "maxsat": ("cnf", oracle.max_sat_exact),
    "maxnae": ("cnf", oracle.max_nae_exact),
    "chain": ("bipartite", oracle.min_chain_completion_exact),
    "fas": ("digraph", oracle.min_fas_exact),
    "fvs": ("digraph", oracle.min_fvs_exact),
}


def cmd_reduce(args) -> int:
    spec = load_pipeline_spec(args.pipeline)
    final, states, provenance = run_pipeline(spec, args.input, args.seed)
    write_pipeline_outputs(states, spec, args.out, provenance)
    print(f"wrote {len(states)} instance files and provenance.json to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    kind, solver = _SOLVERS[args.problem]
    instance = _FORMATS[kind][0](_read_text(args.input, "input"))
    result = solver(instance)
    print(f"value {result.value}")
    print("witness " + formats.witness_to_json(result.witness).strip())
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_pipeline_spec(args.pipeline)
    if args.provenance:
        try:
            stored = json.loads(_read_text(args.provenance, "provenance"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"provenance: invalid JSON: {exc.msg}")
    _final, states, provenance = run_pipeline(spec, args.input, args.seed)
    if args.provenance:
        if stored != json.loads(json.dumps(provenance, default=str)):
            print("provenance mismatch: stored record cannot be re-derived")
            return EXIT_VERIFY
        print("provenance re-derived and matches")
    all_ok, any_cap, report = verify_pipeline(spec, states)
    for _, name, label, ok in report:
        status = "PASS" if ok else ("SKIP" if ok is None else "FAIL")
        print(f"[{status}] {name}: {label}")
    if not all_ok:
        return EXIT_VERIFY
    if any_cap:
        return EXIT_CAP
    # a step that reports a claim as not checked was not verified in full
    unverified = {i: name for i, name, label, _ in report if label == "no verifier"}
    reported = {i: name for i, name, label, ok in report if ok is None and "not checked" in label}
    if unverified or reported:
        notes = [f"{what}: {', '.join(steps.values())}" for what, steps in
                 (("no verifier", unverified), ("reported, not checked", reported)) if steps]
        total = len(spec["steps"])
        print(f"verified {total - len(unverified) - len(reported)} of {total} steps; " + "; ".join(notes))
    else:
        print("all step identities verified")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "e3cnf":
        _write_instance("cnf", gen_e3cnf(args.n, args.m, args.seed), args.out)
    elif args.kind == "regular":
        _write_instance("multigraph", gen_regular_graph(args.n, args.d, args.seed), args.out)
    elif args.kind == "digraph":
        _write_instance("digraph", gen_digraph(args.n, args.m, args.seed), args.out)
    else:  # pragma: no cover - argparse choices
        raise DomainError(f"unknown kind {args.kind}")
    print(f"wrote {args.kind} instance to {args.out}")
    return EXIT_OK


def cmd_expander(args) -> int:
    p = parse_fraction(args.p)
    graph, spec = build_expander(args.n, p, args.seed)
    if args.out:
        _write_instance("multigraph", graph, args.out)
    print(
        f"n={spec.n} d={spec.d} certified_h={spec.certified_h} "
        f"kind={spec.certificate_kind}"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gapchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run a reduction pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="run an exact oracle")
    p.add_argument("--problem", required=True, choices=sorted(_SOLVERS))
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check pipeline identities against oracles")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--provenance", help="stored provenance.json to re-derive and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", required=True, choices=["e3cnf", "regular", "digraph"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("expander", help="build a certified expander")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="Cheeger lower bound, e.g. 3/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_expander)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CapExceededError, ConstructionError, MemoryError) as exc:
        print(f"cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except GapChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # every read goes through _read_text, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
