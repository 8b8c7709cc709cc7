"""Named defects, each put into a correct step, and the `verify` check that
catches it: every row must end in exit 5 with a `[FAIL]` line on its step."""

import dataclasses
import json

import pytest

from gapchain import cli, completion, formats, oracle
from gapchain.model import GapInstance, MultiGraph

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


def _run_verify(tmp_path, steps, kind, payload):
    inp = tmp_path / "in"
    inp.write_text(formats.cnf_to_dimacs(payload) if kind == "cnf" else formats.multigraph_to_json(payload))
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"gap": ["1/2", "1"], "steps": steps}))
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
