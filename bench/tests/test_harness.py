"""Self-check of the benchmark harness at toy size.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from gapchain import cli, completion, oracle  # noqa: E402
from tracer import LAYERS, Tracer, verify_outcome  # noqa: E402


def toy_items(workload, tmp_path):
    return workloads.build(workload, 3, tmp_path / workload, "toy")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_item_runs_and_passes(workload, tmp_path):
    items = toy_items(workload, tmp_path)
    full = workloads.build(workload, 3, tmp_path / "full", "full")
    assert [i.name for i in items] == [i.name for i in full]
    first: dict = {}
    for _ in range(2):
        result = run.run_pass(items, None, first)
        assert result.failed == []
        assert list(result.times) == [i.name for i in items]


def test_off_by_one_reference_fails(tmp_path):
    items = toy_items("solve_cap", tmp_path)
    reference = {}
    for item in items:
        _, record, _ = item.check(item.run(), None)
        reference[item.name] = record
    assert run.run_pass(items, reference, {}).failed == []

    wrong = copy.deepcopy(reference)
    wrong["max_cut_exact"]["value"] += 1
    result = run.run_pass(items, wrong, {})
    failed_ratio = len(result.failed) / len(items)
    assert failed_ratio > 0
    assert result.failed[0].startswith("max_cut_exact")


def test_changed_witness_is_counted_not_failed(tmp_path):
    items = toy_items("solve_cap", tmp_path)
    reference = {}
    for item in items:
        _, record, _ = item.check(item.run(), None)
        reference[item.name] = record
    reference["ola_exact"]["witness"] = "0" * 16
    result = run.run_pass(items, reference, {})
    assert result.failed == []
    assert result.witness_changed == 1


def _snapshot():
    """Every module attribute, dict entry and closure cell the tracer may touch."""
    snap = {}
    tracer = Tracer()
    for layer, mod in tracer.modules.items():
        for attr, obj in vars(mod).items():
            snap[(layer, attr)] = obj
            if isinstance(obj, dict) and attr != "__builtins__":
                for key, value in obj.items():
                    snap[(layer, attr, key)] = value
                    for fn in value if isinstance(value, tuple) else (value,):
                        if isinstance(fn, types.FunctionType):
                            for i, cell in enumerate(fn.__closure__ or ()):
                                snap[(layer, attr, key, i)] = cell.cell_contents
    for cls in ("MultiGraph", "Digraph", "CnfFormula", "BipartiteGraph"):
        snap[cls] = vars(getattr(tracer.modules["model"], cls))["__post_init__"]
    return snap


def test_traced_pass_covers_layers_and_restores_originals(tmp_path):
    max_cut = oracle.max_cut_exact
    interval = oracle._RECOGNIZERS["interval"]
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        # copied names, table entries and closure cells are all wrapped
        assert oracle.max_cut_exact is not max_cut
        assert oracle._RECOGNIZERS["interval"] is not interval
        assert completion.recognizer_for is oracle.recognizer_for
        fillin_runner = cli.STEPS["chain_to_fillin"][2]
        assert fillin_runner.__closure__[0].cell_contents is completion.chain_to_fillin
        results = [run.run_pass(toy_items(w, tmp_path), None, {}, tracer)
                   for w in workloads.WORKLOADS]
    finally:
        tracer.remove()
    assert oracle.max_cut_exact is max_cut
    assert oracle._RECOGNIZERS["interval"] is interval
    assert _snapshot() == before
    assert all(r.failed == [] for r in results)

    metrics = tracer.layer_metrics()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    owned = {"oracle.witness_changed", "trace.overhead_s", "trace.unattributed_s"}
    assert {m["name"] for m in spec["per_layer"]} == set(metrics) | owned
    assert {s[0].split(".")[0] for s in tracer.spans} == set(LAYERS)
    assert metrics["oracle.max_cut_exact.s"] > 0
    assert metrics["oracle.calls"] >= 10
    assert metrics["model.construct.calls"] > 0
    assert metrics["formats.bytes_written"] > 0
    traced = sum(r.batch_s for r in results)
    assert traced - tracer.root_seconds() < 0.1 * traced


def test_verify_outcomes():
    lines = {
        "[PASS] e3sat_to_nae4sat: max_nae(out) == max_sat(in)": "passed",
        "[FAIL] blowup: fas(out) == t^2 fas(in)": "failed",
        "[SKIP] build_t: recovered balanced cut 2 vs optimum 2 (reported)": "reported",
        "[SKIP] maxcut_to_ola: unverifiable at this size (ola_exact: size 2482 exceeds cap 20)":
            "cap_skipped",
        "[SKIP] chain_to_threshold: no verifier": "no_verifier",
        "all step identities verified": None,
    }
    for line, outcome in lines.items():
        assert verify_outcome(line) == outcome
