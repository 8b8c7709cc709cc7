"""Named defects, each put into a correct step, and the `verify` check that
catches it: every row must end in exit 5 with a `[FAIL]` line on its step."""

import dataclasses
import json

import numpy as np
import pytest

from gapchain import cli, completion, denseola, formats, oracle
from gapchain.model import BipartiteGraph, GapInstance, MultiGraph

SAT3 = [{"name": "e3sat_to_nae4sat"}, {"name": "nae4sat_to_nae3sat"}, {"name": "nae3sat_to_multicut"}]
CHAIN = [{"name": "ola_to_chain", "params": {"k": 2}}]


def _gap_set_to(f):
    """A SAT reduction that emits the gap f(x) in place of its own."""

    def mutate(reduction):
        def mutant(gi):
            out, lift = reduction(gi)
            return GapInstance(out.instance, gi.gap.map(f), out.unit_kind), lift

        return mutant

    return mutate


def _one_more_pair_edge(reduction):
    """nae3sat_to_multicut with each literal pair joined by n_i + 1 edges."""

    def mutant(gi):
        out, lift = reduction(gi)
        used = [v for v, count in enumerate(gi.instance.occurrence_counts()) if count]
        extra = tuple((2 * v, 2 * v + 1, 1) for v in used)
        graph = MultiGraph(out.instance.n, out.instance.edges + extra)
        return GapInstance(graph, out.gap, out.unit_kind), lift

    return mutant


def _budget_plus_one(real):
    def mutant(g, k):
        ci, lift = real(g, k)
        return dataclasses.replace(ci, budget=ci.budget + 1), lift

    return mutant


def _run_verify(tmp_path, steps, kind, payload, gap=("1/2", "1")):
    inp = tmp_path / "in"
    inp.write_text(formats.cnf_to_dimacs(payload) if kind == "cnf" else formats.multigraph_to_json(payload))
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"gap": list(gap), "steps": steps}))
    return cli.main(["verify", "--pipeline", str(pipe), "--in", str(inp), "--seed", "7"])


@pytest.mark.parametrize("step, mutate", [
    ("nae3sat_to_multicut", _gap_set_to(lambda x: (3 + 2 * x) / 5)),
    ("nae4sat_to_nae3sat", _gap_set_to(lambda x: (1 + x) / 3)),
    ("nae3sat_to_multicut", _one_more_pair_edge),
], ids=["multicut-gap-over-5", "nae3-gap-over-3", "pair-multiplicity-plus-one"])
def test_sat_mutant_fails_its_step(tmp_path, monkeypatch, capsys, step, mutate):
    # the runner's first closure cell holds the reduction it applies
    cell = cli.STEPS[step][2].__closure__[0]
    monkeypatch.setattr(cell, "cell_contents", mutate(cell.cell_contents))
    assert _run_verify(tmp_path, SAT3, "cnf", cli.gen_e3cnf(4, 3, seed=6)) == cli.EXIT_VERIFY
    failed = {line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")}
    assert failed == {f"[FAIL] {step}"}


def test_chain_budget_plus_one_fails_ola_to_chain(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(completion, "ola_to_chain", _budget_plus_one(completion.ola_to_chain))
    assert _run_verify(tmp_path, CHAIN, "multigraph", MultiGraph(3, [(0, 1), (1, 2)])) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == ["[FAIL] ola_to_chain: budget == k + const"]


def _completion_budget_plus_one(builder):
    def mutant(ci):
        graph, budget = builder(ci)
        return graph, budget + 1

    return mutant


@pytest.mark.parametrize("step", ["chain_to_fillin", "chain_to_interval", "chain_to_proper_interval"])
def test_chain_completion_budget_plus_one_fails_its_step(tmp_path, monkeypatch, capsys, step):
    # the runner's closure cell holds the completion builder it applies
    cell = cli.STEPS[step][2].__closure__[0]
    monkeypatch.setattr(cell, "cell_contents", _completion_budget_plus_one(cell.cell_contents))
    path = MultiGraph(5, [(i, i + 1) for i in range(4)])
    steps = [{"name": "ola_to_chain", "params": {"k": 8}}, {"name": step}]
    assert _run_verify(tmp_path, steps, "multigraph", path) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [f"[FAIL] {step}: budget == budget(in)"]


def test_capped_output_costs_no_solve_of_the_input(tmp_path, monkeypatch, capsys):
    # 11 edge copies on 3 vertices give a 25-vertex simple graph, past the max cut cap
    graph = MultiGraph(3, [(0, 1, 4), (1, 2, 4), (0, 2, 3)])
    solved = []
    real = oracle.max_cut_exact
    monkeypatch.setattr(oracle, "max_cut_exact", lambda g: solved.append(g) or real(g))
    assert _run_verify(tmp_path, [{"name": "multicut_to_simplecut"}], "multigraph", graph) == cli.EXIT_CAP
    assert [g.n for g in solved] == [25]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "[SKIP] multicut_to_simplecut: unverifiable at this size (max_cut_exact: size 25 exceeds cap 24)"
    )


def _failed_lines(capsys):
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]


@pytest.mark.parametrize("shift", [1, -1], ids=["plus-one", "minus-one"])
@pytest.mark.parametrize("graph, gap", [
    (cli.gen_regular_graph(6, 3, seed=0), ("0", "1")),  # verify_chains' dense shape
    (MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), ("1/2", "1")),  # K4
], ids=["cubic6", "k4"])
def test_maxcut_to_ola_budget_mutant_fails_its_ledger_line(tmp_path, monkeypatch, capsys, graph, gap, shift):
    real = denseola.maxcut_to_ola

    def mutant(gi):
        out = real(gi)
        return dataclasses.replace(out, budget=out.budget + shift)

    monkeypatch.setattr(denseola, "maxcut_to_ola", mutant)
    assert _run_verify(tmp_path, [{"name": "maxcut_to_ola"}], "multigraph", graph, gap) == cli.EXIT_VERIFY
    failed = _failed_lines(capsys)
    assert failed[0] == "[FAIL] maxcut_to_ola: budget == C((M+1)n+1, 3) - ceil(beta*m)*M*n"
    assert all(line.startswith("[FAIL] maxcut_to_ola: ") for line in failed)


def _second_edge_moved(real):
    """ola_to_chain with the first degree-2 B-vertex's second edge moved to a third A vertex."""

    def mutant(g, k):
        ci, lift = real(g, k)
        h = ci.graph
        b = int(np.argmax(np.bincount(h.v, minlength=h.b_size) == 2))
        x, y = h.u[h.v == b].tolist()
        z = next(a for a in range(h.a_size) if a not in (x, y))
        edges = [e for e in h.edges if e != (y, b)] + [(z, b)]
        return dataclasses.replace(ci, graph=BipartiteGraph(h.a_size, h.b_size, edges)), lift

    return mutant


def _a_clique_pair_dropped(real):
    """two_clique_cover less the A-clique pair (0, 1)."""

    def mutant(h):
        g = real(h)
        keep = (g.u != 0) | (g.v != 1)
        return MultiGraph.from_arrays(g.n, g.u[keep], g.v[keep])

    return mutant


@pytest.mark.parametrize("builder, mutate, source, label", [
    ("ola_to_chain", _second_edge_moved, MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)]),
     "[FAIL] ola_to_chain: min_chain == OLA + const"),
    ("two_clique_cover", _a_clique_pair_dropped, MultiGraph(5, [(i, i + 1) for i in range(4)]),
     "[FAIL] chain_to_fillin: min_fill_in == min_chain"),
], ids=["c5-b-edge-moved", "p5-a-clique-pair-dropped"])
def test_chain_builder_mutant_fails_its_step(tmp_path, monkeypatch, capsys, builder, mutate, source, label):
    monkeypatch.setattr(completion, builder, mutate(getattr(completion, builder)))
    steps = [{"name": "ola_to_chain", "params": {"k": 8}}, {"name": "chain_to_fillin"}]
    assert _run_verify(tmp_path, steps, "multigraph", source) == cli.EXIT_VERIFY
    failed = _failed_lines(capsys)
    step = label.split(":")[0]
    assert label in failed and all(line.startswith(f"{step}:") for line in failed)
