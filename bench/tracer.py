"""Per-layer tracing of gapchain from outside the package.

`Tracer.install()` replaces the public functions of every layer module with
wrappers that record one span per call: name, start, end, parent span and
item id. Every reference to a wrapped function is replaced, not just the
module attribute: names copied in by `from ... import`, dict tables such as
`oracle._RECOGNIZERS` and `cli._READERS`, tuples inside those tables, and
closure cells (the `cli.STEPS` completion runners capture their reduction).
`remove()` puts every original object back. Spans stay in memory;
`layer_metrics()` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "model", "bitops", "oracle", "expander", "satchain", "denseola",
    "sparseola", "completion", "fastchain", "formats", "cli",
)
MODEL_CLASSES = ("MultiGraph", "Digraph", "CnfFormula", "BipartiteGraph")
# bitpos is integer arithmetic called once per edge inside cut_weight_table;
# a span per call would time the wrapper, not the layer.
SKIP = {"bitops.bitpos"}
# private functions wrapped for the counters they feed
EXTRA = {"expander._certify"}

SOLVERS = (
    "max_sat_exact", "max_nae_exact", "max_cut_exact", "min_bisection_exact",
    "ola_exact", "min_fill_in_exact", "min_chain_completion_exact",
    "min_fas_exact", "min_fvs_exact", "is_interval",
)
# oracle functions that answer no question about an instance
ORACLE_HELPERS = {"oracle.backward_arc_weight", "oracle.recognizer_for"}
READERS = ("dimacs_to_cnf", "json_to_multigraph", "json_to_digraph", "json_to_bipartite")
WRITERS = ("cnf_to_dimacs", "multigraph_to_json", "digraph_to_json", "bipartite_to_json",
           "witness_to_json")
EVALUATORS = ("cost_of_ordering", "cut_size", "count_satisfied", "count_nae_satisfied")
VERIFY_OUTCOMES = ("passed", "failed", "reported", "cap_skipped", "no_verifier")


def verify_outcome(line: str) -> str | None:
    """Which of the five outcomes a `gapchain verify` report line states."""
    if line.startswith("[PASS]"):
        return "passed"
    if line.startswith("[FAIL]"):
        return "failed"
    if line.startswith("[SKIP]"):
        if line.endswith(": no verifier"):
            return "no_verifier"
        if ": unverifiable at this size" in line:
            return "cap_skipped"
        return "reported"
    return None


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"gapchain.{name}") for name in LAYERS}
        self.spans: list[list] = []  # [name, start, end, parent, item, error]
        self.stack: list[int] = []
        self.item: str | None = None
        self.active = False  # spans are recorded only while True
        self.counts: Counter = Counter()
        self.oracle_inputs: set = set()
        self._undo: list[tuple] = []

    # -- installing -------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every wrapped callable."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if name in SKIP or (attr.startswith("_") and name not in EXTRA):
                    continue
                yield name, mod, attr, obj
        model = self.modules["model"]
        for cls in MODEL_CLASSES:
            owner = getattr(model, cls)
            yield f"model.{cls}.__post_init__", owner, "__post_init__", owner.__post_init__

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for name, owner, attr, fn in self._targets():
            wrapper = self._wrap(name, fn)
            wrapped[id(fn)] = wrapper
            self._set(owner, attr, wrapper)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    self._rebind_dict(obj, wrapped)
            for obj in list(vars(mod).values()):
                values = obj.values() if isinstance(obj, dict) else (obj,)
                for value in values:
                    for fn in value if isinstance(value, tuple) else (value,):
                        self._rebind_closure(fn, wrapped)

    def remove(self):
        self.active = False
        for kind, owner, key, old in reversed(self._undo):
            if kind == "attr":
                setattr(owner, key, old)
            elif kind == "item":
                owner[key] = old
            else:
                owner.cell_contents = old
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_dict(self, table: dict, wrapped: dict):
        for key, value in list(table.items()):
            if id(value) in wrapped:
                new = wrapped[id(value)]
            elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                new = tuple(wrapped.get(id(v), v) for v in value)
            else:
                continue
            self._undo.append(("item", table, key, value))
            table[key] = new

    def _rebind_closure(self, fn, wrapped: dict):
        if not isinstance(fn, types.FunctionType) or hasattr(fn, "__wrapped_by_tracer__"):
            return
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if id(value) in wrapped:
                self._undo.append(("cell", cell, None, value))
                cell.cell_contents = wrapped[id(value)]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = _HOOKS.get(name)
        is_oracle = name.startswith("oracle.") and name not in ORACLE_HELPERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            if is_oracle:
                self._oracle_call(name, span, args)
            if name.endswith("__post_init__"):
                self._construct(args[0])
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- counters ---------------------------------------------------------

    def _outermost_oracle(self, span) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0].startswith("oracle."):
                return False
            parent = self.spans[parent][3]
        return True

    def _oracle_call(self, name, span, args):
        if not self._outermost_oracle(span):
            return
        self.counts["oracle.calls"] += 1
        try:
            self.oracle_inputs.add(hash((name, args[0] if args else None)))
        except TypeError:
            self.oracle_inputs.add((name, id(args[0])))

    def _construct(self, obj):
        """Count the edges, arcs or clauses handed in, before canonicalization."""
        self.counts["model.construct.calls"] += 1
        for attr in ("edges", "arcs", "clauses"):
            raw = getattr(obj, attr, None)
            if raw is not None:
                # an iterator has no length, and counting it would consume it
                self.counts["model.items_canonicalized"] += len(raw) if hasattr(raw, "__len__") else 0
                return

    def count_verify_report(self, stdout: str):
        for line in stdout.splitlines():
            outcome = verify_outcome(line.strip())
            if outcome is not None:
                self.counts[f"cli.verify.{outcome}"] += 1

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        incl: Counter = Counter()
        self_by_layer: Counter = Counter()
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        refusals = 0
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            incl[s[0]] += dur
            calls[s[0]] += 1
            self_by_layer[s[0].split(".")[0]] += dur - child[i]
            self_by_name[s[0]] += dur - child[i]
            if s[5] == "CapExceededError" and s[0].startswith("oracle.") \
                    and s[0] not in ORACLE_HELPERS and self._outermost_oracle(s):
                refusals += 1
        c = self.counts
        m: dict[str, float] = {}
        for solver in SOLVERS:
            m[f"oracle.{solver}.s"] = incl[f"oracle.{solver}"]
        m["oracle.calls"] = c["oracle.calls"]
        m["oracle.distinct_inputs"] = len(self.oracle_inputs)
        m["oracle.repeat_ratio"] = (
            1 - len(self.oracle_inputs) / c["oracle.calls"] if c["oracle.calls"] else 0.0
        )
        m["oracle.cap_refusals"] = refusals
        m["bitops.cut_weight_table.s"] = incl["bitops.cut_weight_table"]
        m["bitops.cut_weight_table.calls"] = calls["bitops.cut_weight_table"]
        m["bitops.table_cells"] = c["bitops.table_cells"]
        m["bitops.masks_by_popcount.s"] = incl["bitops.masks_by_popcount"]
        m["bitops.into_vertex_tables.s"] = incl["bitops.into_vertex_tables"]
        m["expander.build.s"] = (
            incl["expander.build_expander"] + incl["expander.build_expander_family"]
        )
        samples = calls["expander.sample_regular_multigraph"]
        m["expander.samples"] = samples
        m["expander.certified_ratio"] = c["expander.certified"] / samples if samples else 0.0
        m["expander.cheeger_exact.s"] = incl["expander.cheeger_exact"]
        m["expander.spectral.s"] = incl["expander.spectral_cheeger_bound"]
        m["model.construct.s"] = sum(incl[f"model.{k}.__post_init__"] for k in MODEL_CLASSES)
        m["model.construct.calls"] = c["model.construct.calls"]
        m["model.items_canonicalized"] = c["model.items_canonicalized"]
        m["model.eval.s"] = sum(incl[f"model.{k}"] for k in EVALUATORS)
        for layer in ("satchain", "denseola", "sparseola", "completion", "fastchain"):
            m[f"{layer}.s"] = self_by_layer[layer]
        m["reduce.out_edges"] = c["reduce.out_edges"]
        m["formats.read.s"] = sum(incl[f"formats.{k}"] for k in READERS)
        m["formats.write.s"] = sum(incl[f"formats.{k}"] for k in WRITERS)
        m["formats.bytes_written"] = c["formats.bytes_written"]
        m["cli.run_pipeline.self_s"] = self_by_name["cli.run_pipeline"]
        m["cli.verify_pipeline.self_s"] = self_by_name["cli.verify_pipeline"]
        m["cli.write_outputs.self_s"] = self_by_name["cli.write_pipeline_outputs"]
        for outcome in VERIFY_OUTCOMES:
            m[f"cli.verify.{outcome}"] = c[f"cli.verify.{outcome}"]
        return m

    def root_seconds(self) -> float:
        """Time inside top-level spans; the rest of a traced pass is unattributed."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)


def _count_cells(tr: Tracer, table):
    tr.counts["bitops.table_cells"] += int(table.size)


def _count_certified(tr: Tracer, result):
    if result[0]:
        tr.counts["expander.certified"] += 1


def _count_bytes(tr: Tracer, text):
    # writers emit ASCII JSON and DIMACS, so characters are bytes
    tr.counts["formats.bytes_written"] += len(text)


def _count_out_edges(tr: Tracer, result):
    _final, _states, provenance = result
    for step in provenance["steps"]:
        out = step["out"]
        tr.counts["reduce.out_edges"] += out.get("edges", 0) + out.get("arcs", 0)


_HOOKS = {
    "bitops.cut_weight_table": _count_cells,
    "expander._certify": _count_certified,
    "cli.run_pipeline": _count_out_edges,
    **{f"formats.{k}": _count_bytes for k in WRITERS},
}
