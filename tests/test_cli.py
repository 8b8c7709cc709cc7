import hashlib
import inspect
import itertools
import json
import os
import re
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import cli, fastchain, formats, oracle
from gapchain.errors import CapExceededError, DomainError, ParseError
from gapchain.expander import build_expander
from gapchain.model import BipartiteGraph, CnfFormula, Digraph, GapParams, MultiGraph


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def pipeline_file(tmp_path, steps, gap=("1/2", "1")):
    spec = {"steps": steps}
    if gap is not None:
        spec["gap"] = list(gap)
    return write(tmp_path, "pipe.json", json.dumps(spec))


def test_dimacs_roundtrip():
    f = CnfFormula(3, [((0, True), (2, False), (1, True)), ((1, False),)])
    assert formats.dimacs_to_cnf(formats.cnf_to_dimacs(f)) == f


def test_dimacs_parse_errors():
    with pytest.raises(ParseError):
        formats.dimacs_to_cnf("1 2 0\n")
    with pytest.raises(ParseError):
        formats.dimacs_to_cnf("p cnf 2 1\n1 2\n")
    with pytest.raises(ParseError):
        formats.dimacs_to_cnf("p cnf 1 1\n2 0\n")
    with pytest.raises(ParseError):
        formats.dimacs_to_cnf("p cnf 1 2\n1 0\n")


def test_graph_json_roundtrips():
    g = MultiGraph(4, [(0, 1, 2), (2, 3), (1, 1)])
    assert formats.json_to_multigraph(formats.multigraph_to_json(g)) == g
    d = Digraph(3, [(1, 0), (0, 1), (2, 2, 3)])
    assert formats.json_to_digraph(formats.digraph_to_json(d)) == d
    h = BipartiteGraph(2, 3, [(0, 2), (1, 0)])
    assert formats.json_to_bipartite(formats.bipartite_to_json(h)) == h


@st.composite
def cnf_formulas(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return CnfFormula(0)
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), max_size=10))
    return CnfFormula(n, [tuple(c) for c in clauses])


@st.composite
def edge_lists(draw):
    """(n, edges) with loops, repeats and multiplicities, for either graph kind."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=20))


@st.composite
def bipartite_graphs(draw):
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pairs = [(x, y) for x in range(a) for y in range(b)]
    if not pairs:
        return BipartiteGraph(a, b)
    return BipartiteGraph(a, b, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=60, deadline=None)
@given(cnf_formulas())
def test_dimacs_roundtrip_property(f):
    text = formats.cnf_to_dimacs(f)
    assert formats.dimacs_to_cnf(text) == f
    assert formats.cnf_to_dimacs(formats.dimacs_to_cnf(text)) == text


@settings(max_examples=60, deadline=None)
@given(edge_lists(), edge_lists(), bipartite_graphs())
def test_json_roundtrip_properties(g_edges, d_arcs, h):
    g, d = MultiGraph(*g_edges), Digraph(*d_arcs)
    for x, write, read in (
        (g, formats.multigraph_to_json, formats.json_to_multigraph),
        (d, formats.digraph_to_json, formats.json_to_digraph),
        (h, formats.bipartite_to_json, formats.json_to_bipartite),
    ):
        text = write(x)
        assert read(text) == x
        assert write(read(text)) == text


def test_generators_deterministic():
    assert cli.gen_e3cnf(5, 4, seed=1) == cli.gen_e3cnf(5, 4, seed=1)
    assert cli.gen_e3cnf(5, 4, seed=1) != cli.gen_e3cnf(5, 4, seed=2)
    g = cli.gen_regular_graph(6, 3, seed=4)
    assert g == cli.gen_regular_graph(6, 3, seed=4)
    assert g.is_simple() and g.is_regular(3)
    d = cli.gen_digraph(5, 7, seed=4)
    assert d == cli.gen_digraph(5, 7, seed=4)
    assert d.is_simple() and d.m == 7


def test_gen_e3cnf_distinct_vars():
    f = cli.gen_e3cnf(6, 10, seed=9)
    assert f.is_exact_cnf(3)
    assert f.repeated_variable_clauses() == []


def test_gen_regular_rejects_impossible():
    with pytest.raises(DomainError):
        cli.gen_regular_graph(4, 4, seed=0)
    with pytest.raises(DomainError):
        cli.gen_regular_graph(5, 3, seed=0)


def test_reduce_writes_outputs_and_reruns_identically(tmp_path):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=2)))
    pipe = pipeline_file(
        tmp_path,
        [
            {"name": "e3sat_to_nae4sat"},
            {"name": "nae4sat_to_nae3sat"},
            {"name": "nae3sat_to_multicut"},
            {"name": "multicut_to_simplecut"},
        ],
    )
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", cnf, "--out", str(out1), "--seed", "3"]) == 0
    assert cli.main(["reduce", "--pipeline", pipe, "--in", cnf, "--out", str(out2), "--seed", "3"]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # every emitted instance file round-trips through its parser byte-for-byte
    for path in out1.iterdir():
        if path.suffix == ".cnf":
            assert formats.cnf_to_dimacs(formats.dimacs_to_cnf(path.read_text())) == path.read_text()
        elif path.name != "provenance.json":
            assert (
                formats.multigraph_to_json(formats.json_to_multigraph(path.read_text()))
                == path.read_text()
            )
    final = formats.json_to_multigraph((out1 / "out.json").read_text())
    assert final.is_simple()
    prov = json.loads((out1 / "provenance.json").read_text())
    # composed gap reaches the (16+a)/18 closed form
    assert prov["steps"][-1]["gap"] == ["11/12", "17/18"]


# SHA-256 of the maxcut_to_ola output (2,482 vertices, 3,078,885 edges) for the
# one-clause gen_e3cnf(3, 1, seed=0) formula through the full SAT chain at gap
# [1/2, 1], as written by the tuple-based writer before the arrays replaced it.
DENSE72_SHA256 = "1779cc5f47faacbd196636ec4de41ef26f711d2c664cf0253d311bc6b9154f16"


# SHA-256 over the names and bytes, in name order, of every file `reduce`
# writes for build_t -> ola_to_chain -> chain_to_fillin on gen_regular_graph(12,
# 3, seed=2) at seed 3, as written when BipartiteGraph held tuples, ola_to_chain
# took slots in a per-copy loop and the clique cover read a pair mask. T(G)
# hands ola_to_chain 46 repeated pairs and 10 loop copies to drop.
CHAIN_FILLIN_SHA256 = "2b28d7e28d503c06b0f39e2638176f4d3f60134e1bf2098066358b5ded35d5ed"


def test_reduce_build_t_to_fillin_pin(tmp_path):
    g = write(tmp_path, "g.json", formats.multigraph_to_json(cli.gen_regular_graph(12, 3, seed=2)))
    build_t = {"d_g": 3, "mode": "desk", "overrides": {"z": 2, "phi": 1, "p_h": 3, "p_hi": 2}}
    steps = [{"name": "build_t", "params": build_t}, {"name": "ola_to_chain", "params": {"k": 100000}},
             {"name": "chain_to_fillin"}]
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipeline_file(tmp_path, steps), "--in", g,
                     "--out", str(out), "--seed", "3"]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == CHAIN_FILLIN_SHA256
    chain = json.loads((out / "provenance.json").read_text())["steps"][1]
    assert (chain["loops_dropped"], chain["out"]) == (10, {"a": 36, "b": 648, "edges": 1130})


def test_reduce_dense72_scale_pin_writes_each_state_once(tmp_path, monkeypatch):
    calls = Counter()

    def counted(writer):
        def run(payload):
            calls[id(payload)] += 1
            return writer(payload)

        return run

    monkeypatch.setattr(
        cli, "_FORMATS", {kind: (r, counted(w), ext) for kind, (r, w, ext) in cli._FORMATS.items()}
    )
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(3, 1, seed=0)))
    steps = ["e3sat_to_nae4sat", "nae4sat_to_nae3sat", "nae3sat_to_multicut",
             "multicut_to_simplecut", "maxcut_to_ola"]
    pipe = pipeline_file(tmp_path, [{"name": s} for s in steps])
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", cnf, "--out", str(out)]) == 0
    step_files = sorted(out.glob("step_*"))
    assert [p.name for p in step_files][-1] == "step_05_maxcut_to_ola.json"
    text = (out / "out.json").read_bytes()
    assert text == step_files[-1].read_bytes()
    assert hashlib.sha256(text).hexdigest() == DENSE72_SHA256
    assert sorted(calls.values()) == [1] * len(step_files) == [1] * 6
    last = json.loads((out / "provenance.json").read_text())["steps"][-1]
    assert last["out"] == {"vertices": 2482, "edges": 3078885}


SAT_STEPS = ["e3sat_to_nae4sat", "nae4sat_to_nae3sat", "nae3sat_to_multicut", "multicut_to_simplecut"]


def test_reduce_twice_into_one_directory_links_out_to_the_last_step(tmp_path):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=1)))
    out = tmp_path / "out"
    for steps in (SAT_STEPS, SAT_STEPS[:3]):
        pipe = pipeline_file(tmp_path, [{"name": s} for s in steps])
        assert cli.main(["reduce", "--pipeline", pipe, "--in", cnf, "--out", str(out)]) == 0
    last = out / "step_03_nae3sat_to_multicut.json"
    stale = out / "step_04_multicut_to_simplecut.json"  # left by the first run
    assert (out / "out.json").read_bytes() == last.read_bytes() != stale.read_bytes()
    assert (out / "out.json").samefile(last)
    assert formats.json_to_multigraph(stale.read_text()).is_simple()  # relinking left it whole


def test_reduce_copies_out_where_links_are_refused(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr(os, "link", refuse)
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=1)))
    pipe = pipeline_file(tmp_path, [{"name": s} for s in SAT_STEPS])
    out = tmp_path / "out"
    for _ in range(2):  # the second run replaces the first run's copy
        assert cli.main(["reduce", "--pipeline", pipe, "--in", cnf, "--out", str(out)]) == 0
    last = out / "step_04_multicut_to_simplecut.json"
    assert (out / "out.json").read_bytes() == last.read_bytes()
    assert not (out / "out.json").samefile(last)


def test_empty_pipeline_is_identity(tmp_path):
    g = MultiGraph(3, [(0, 1), (1, 2, 2)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(tmp_path, [], gap=None)
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(out)]) == 0
    assert formats.json_to_multigraph((out / "out.json").read_text()) == g


def test_kind_mismatch_is_domain_error(tmp_path):
    g = MultiGraph(2, [(0, 1)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(
        tmp_path,
        [{"name": "multicut_to_simplecut"}, {"name": "e3sat_to_nae4sat"}],
    )
    code = cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_DOMAIN


def test_unknown_step_is_parse_error(tmp_path):
    pipe = pipeline_file(tmp_path, [{"name": "no_such_step"}])
    code = cli.main(["reduce", "--pipeline", pipe, "--in", "whatever", "--out", "x"])
    assert code == cli.EXIT_PARSE


def test_solve_ola(tmp_path, capsys):
    g = MultiGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    assert cli.main(["solve", "--problem", "ola", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "value 5" in out


@pytest.mark.parametrize(
    "problem, g, want",
    [
        ("maxcut", MultiGraph(0), "value 0\nwitness []\n"),
        ("maxcut", MultiGraph(1, [(0, 0, 3)]), "value 0\nwitness [false]\n"),
        ("bisection", MultiGraph(0), "value 0\nwitness []\n"),
        ("ola", MultiGraph(0), "value 0\nwitness []\n"),
        ("ola", MultiGraph(1, [(0, 0, 3)]), "value 0\nwitness [0]\n"),
    ],
)
def test_solve_cuts_below_two_vertices(tmp_path, capsys, problem, g, want):
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    assert cli.main(["solve", "--problem", problem, "--in", path]) == 0
    assert capsys.readouterr().out == want


def test_solve_parse_error(tmp_path):
    path = write(tmp_path, "bad.json", "{not json")
    assert cli.main(["solve", "--problem", "ola", "--in", path]) == cli.EXIT_PARSE
    # a JSON bool is not an integer, though Python's isinstance says it is
    for problem, text in [
        ("ola", '{"n": true, "edges": []}'),
        ("maxcut", '{"n": 2, "edges": [[0, true]]}'),
        ("fas", '{"n": 2, "edges": [[0, 1, false]]}'),
        ("chain", '{"a": true, "b": 1, "edges": []}'),
        ("chain", '{"a": 1, "b": false, "edges": []}'),
        ("ola", '{"n": 2.0, "edges": []}'),
    ]:
        path = write(tmp_path, "bad.json", text)
        assert cli.main(["solve", "--problem", problem, "--in", path]) == cli.EXIT_PARSE, text


def test_solve_cap_exceeded(tmp_path):
    g = MultiGraph(25, [])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    assert cli.main(["solve", "--problem", "ola", "--in", path]) == cli.EXIT_CAP


def test_solve_weight_past_the_sentinel_is_domain_error(tmp_path, capsys):
    g = MultiGraph(3, [(0, 1, 2**61), (1, 2, 2**61), (0, 2, 2**61)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    assert cli.main(["solve", "--problem", "ola", "--in", path]) == cli.EXIT_DOMAIN
    d = Digraph(2, [(0, 1, 2**61), (1, 0, 2**61)])
    path = write(tmp_path, "d.json", formats.digraph_to_json(d))
    assert cli.main(["solve", "--problem", "fas", "--in", path]) == cli.EXIT_DOMAIN
    assert "Traceback" not in capsys.readouterr().err


def test_usage_error():
    assert cli.main(["solve", "--problem", "nope", "--in", "x"]) == cli.EXIT_USAGE


def test_undecodable_files_are_parse_errors(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"p cnf 1 1\n\xff\xfe 0\n")
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(3, 1, seed=0)))
    pipe = pipeline_file(tmp_path, [{"name": "e3sat_to_nae4sat"}])
    out = str(tmp_path / "out")
    for argv, what in [
        (["reduce", "--pipeline", str(bad), "--in", cnf, "--out", out], "pipeline spec"),
        (["reduce", "--pipeline", pipe, "--in", str(bad), "--out", out], "input"),
        (["solve", "--problem", "maxsat", "--in", str(bad)], "input"),
        (["verify", "--pipeline", pipe, "--in", cnf, "--provenance", str(bad)], "provenance"),
    ]:
        assert cli.main(argv) == cli.EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: cannot read {what}: ") and "Traceback" not in err, err


def test_unwritable_outputs_are_usage_errors(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(3, 1, seed=0)))
    pipe = pipeline_file(tmp_path, [{"name": "e3sat_to_nae4sat"}])
    missing = str(tmp_path / "no" / "such" / "dir" / "g.json")
    for argv in [
        ["reduce", "--pipeline", pipe, "--in", cnf, "--out", cnf],  # a file, not a directory
        ["gen", "--kind", "regular", "--out", missing],
        ["expander", "--n", "6", "--p", "3/2", "--out", missing],
    ]:
        assert cli.main(argv) == cli.EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "Traceback" not in err, err


def test_verify_satchain_pipeline(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=6)))
    pipe = pipeline_file(
        tmp_path,
        [
            {"name": "e3sat_to_nae4sat"},
            {"name": "nae4sat_to_nae3sat"},
            {"name": "nae3sat_to_multicut"},
        ],
    )
    assert cli.main(["verify", "--pipeline", pipe, "--in", cnf, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_dense_pipeline(tmp_path, capsys):
    g = MultiGraph(3, [(0, 1), (1, 2)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(tmp_path, [{"name": "maxcut_to_ola"}], gap=("0", "1"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", path, "--seed", "1"]) == 0


def test_verify_chain_pipeline(tmp_path, capsys):
    g = MultiGraph(3, [(0, 1), (1, 2)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(
        tmp_path,
        [
            {"name": "ola_to_chain", "params": {"k": 2}},
            {"name": "chain_to_fillin"},
        ],
        gap=("0", "1"),
    )
    assert cli.main(["verify", "--pipeline", pipe, "--in", path, "--seed", "1"]) == 0


def test_verify_sparse_to_completion_pipeline(tmp_path):
    g = cli.gen_regular_graph(4, 2, seed=1)
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(
        tmp_path,
        [
            {
                "name": "build_t",
                "params": {
                    "d_g": 2,
                    "mode": "desk",
                    "overrides": {"z": 2, "phi": "1/2", "p_h": 1, "p_hi": 1},
                },
            },
            {"name": "ola_to_chain"},
            {"name": "chain_to_threshold"},
        ],
    )
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(out), "--seed", "4"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    steps = {s["step"]: s for s in prov["steps"]}
    # the arrangement budget threads into the chain budget, loops stripped
    delta = steps["ola_to_chain"]["delta"]
    stripped_m = (steps["build_t"]["out"]["edges"] - steps["ola_to_chain"].get("loops_dropped", 0))
    n = steps["build_t"]["out"]["vertices"]
    expected = steps["build_t"]["budget"] + delta * n * (n - 1) // 2 - 2 * stripped_m
    assert steps["ola_to_chain"]["budget"] == expected
    assert cli.main(["verify", "--pipeline", pipe, "--in", path, "--seed", "4"]) == 0


def test_verify_build_t_reports_a_missing_budget(tmp_path, capsys):
    # alpha*m = 4/3 on the 4-cycle, so the desk budget is unavailable
    path = write(tmp_path, "g.json", _GRAPH)
    pipe = pipeline_file(tmp_path, [{"name": "build_t", "params": _DESK_BUILD_T}], gap=("1/3", "1"))
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["steps"][0]["budget"] == "unavailable: alpha*m = 4/3 is not integral"
    capsys.readouterr()
    assert cli.main(["verify", "--pipeline", pipe, "--in", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "[PASS] build_t: vertex count n + Z*ceil(phi n)",
        "[PASS] build_t: degree bound",
        "[SKIP] build_t: no budget, so cost <= budget was not checked (reported)",
    ]
    # a reported line is not a verified one, so the summary names its step
    assert lines[-1] == "verified 0 of 1 steps; reported, not checked: build_t"
    assert "all step identities verified" not in lines


def test_verify_build_t_counts_its_cut_report_as_verified(tmp_path, capsys):
    # alpha*m = 2 on the 4-cycle: the budget exists and cost <= budget is
    # checked; the recovered cut is a report beside it, not an unchecked claim
    path = write(tmp_path, "g.json", _GRAPH)
    pipe = pipeline_file(tmp_path, [{"name": "build_t", "params": _DESK_BUILD_T}], gap=("1/2", "1"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("[SKIP] build_t: recovered balanced cut ")
    assert lines[-1] == "all step identities verified"


def test_verify_fast_pipeline(tmp_path):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(3, 1, seed=1)))
    pipe = pipeline_file(
        tmp_path,
        [
            {"name": "nae3_to_ssat"},
            {"name": "ssat_to_fvs"},
            {"name": "fvs_to_fas"},
        ],
        gap=("0", "1"),
    )
    assert cli.main(["verify", "--pipeline", pipe, "--in", cnf, "--seed", "1"]) == 0


def _tournament_provenance(tmp_path, steps, gap, instance):
    path = write(tmp_path, "in.txt", instance)
    pipe = pipeline_file(tmp_path, steps + [{"name": "complete_to_tournament"}], gap=gap)
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(out), "--seed", "3"]) == 0
    return json.loads((out / "provenance.json").read_text())["steps"]


def test_tournament_provenance_records_thresholds_after_blowup(tmp_path):
    cnf = formats.cnf_to_dimacs(cli.gen_e3cnf(3, 1, seed=1))
    chain = [{"name": "nae3_to_ssat"}, {"name": "ssat_to_fvs"}, {"name": "fvs_to_fas"},
             {"name": "subdivide_arcs"}, {"name": "blowup", "params": {"t": 2}}]
    *_, blow, tour = _tournament_provenance(tmp_path, chain, ("1/3", "1"), cnf)
    gap = GapParams(*map(Fraction, blow["gap"]))
    want = fastchain.tournament_thresholds(gap, 2, blow["in"]["arcs"], tour["random_arcs"])
    assert tour["random_arcs"] > 0
    assert tour["thresholds"] == [str(x) for x in want]
    assert set(tour) - set(blow) == {"random_arcs", "thresholds"}


@pytest.mark.parametrize("steps, gap", [
    ([{"name": "subdivide_arcs"}], ("1/4", "1/2")),  # a gap but no blow-up factor
    ([{"name": "blowup", "params": {"t": 2}}], None),  # a blow-up factor but no gap
    # a blow-up factor, but not on the step right before the tournament
    ([{"name": "blowup", "params": {"t": 2}}, {"name": "subdivide_arcs"}], ("1/4", "1/2")),
])
def test_tournament_provenance_without_blowup_or_gap_records_random_arcs_only(tmp_path, steps, gap):
    digraph = formats.digraph_to_json(Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    *_, before, tour = _tournament_provenance(tmp_path, steps, gap, digraph)
    assert set(tour) - set(before) == {"random_arcs"}
    assert tour["random_arcs"] > 0


def test_verify_detects_broken_identity(tmp_path, monkeypatch):
    from gapchain import oracle

    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 2, seed=8)))
    pipe = pipeline_file(tmp_path, [{"name": "e3sat_to_nae4sat"}])
    real = oracle.max_sat_exact

    def lying(f):
        res = real(f)
        return oracle.SolveResult(res.value + 1, res.witness)

    monkeypatch.setattr(oracle, "max_sat_exact", lying)
    assert cli.main(["verify", "--pipeline", pipe, "--in", cnf]) == cli.EXIT_VERIFY


def test_verify_unverifiable_at_size(tmp_path):
    # 30 variables put max_sat beyond its cap: distinct exit code, not failure
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(30, 10, seed=3)))
    pipe = pipeline_file(tmp_path, [{"name": "e3sat_to_nae4sat"}])
    assert cli.main(["verify", "--pipeline", pipe, "--in", cnf]) == cli.EXIT_CAP


def test_verify_corrupted_budget(tmp_path):
    g = MultiGraph(3, [(0, 1), (1, 2)])
    path = write(tmp_path, "g.json", formats.multigraph_to_json(g))
    pipe = pipeline_file(tmp_path, [{"name": "maxcut_to_ola"}], gap=("0", "1"))
    out = tmp_path / "out"
    assert cli.main(["reduce", "--pipeline", pipe, "--in", path, "--out", str(out), "--seed", "2"]) == 0
    prov_path = out / "provenance.json"
    prov = json.loads(prov_path.read_text())
    assert cli.main([
        "verify", "--pipeline", pipe, "--in", path, "--seed", "2",
        "--provenance", str(prov_path),
    ]) == 0
    prov["steps"][0]["budget"] += 1
    prov_path.write_text(json.dumps(prov, indent=2, sort_keys=True) + "\n")
    assert cli.main([
        "verify", "--pipeline", pipe, "--in", path, "--seed", "2",
        "--provenance", str(prov_path),
    ]) == cli.EXIT_VERIFY


_MAXCUT_TO_OLA_CHECKS = (
    "M == ceil(2/(beta-alpha))",
    "budget == C((M+1)n+1, 3) - ceil(beta*m)*M*n",
    "pair multiset tiles the complete graph",
    "cut >= beta*m implies OLA <= budget",
    "OLA <= budget implies cut > alpha*m",
    "recovered cut beats alpha*m",
)


@pytest.mark.parametrize(
    "edges, checks, recovered",
    [([(0, 1), (1, 2)], 6, 1), ([], 4, 0), ([(0, 1), (1, 2), (0, 2)], 3, 0)],
    ids=["path", "edgeless", "ola-over-budget"],
)
def test_maxcut_to_ola_verify_reads_a_cut_only_to_check_it(
    tmp_path, monkeypatch, capsys, edges, checks, recovered
):
    from gapchain import denseola

    calls = []
    real = denseola.cut_from_ordering
    monkeypatch.setattr(
        denseola, "cut_from_ordering", lambda out, pi: calls.append(pi) or real(out, pi)
    )
    path = write(tmp_path, "g.json", formats.multigraph_to_json(MultiGraph(3, edges)))
    pipe = pipeline_file(tmp_path, [{"name": "maxcut_to_ola"}], gap=("0", "1"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", path, "--seed", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[PASS] maxcut_to_ola: {label}" for label in _MAXCUT_TO_OLA_CHECKS[:checks]
    ] + ["all step identities verified"]
    assert len(calls) == recovered


def test_expander_command(tmp_path, capsys):
    out = tmp_path / "exp.json"
    assert cli.main(["expander", "--n", "6", "--p", "3/2", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "certified_h" in printed
    g = formats.json_to_multigraph(out.read_text())
    assert g.n == 6


def test_gen_command_roundtrip(tmp_path):
    out = tmp_path / "g.json"
    assert cli.main(["gen", "--kind", "regular", "--n", "6", "--d", "2", "--seed", "5", "--out", str(out)]) == 0
    g = formats.json_to_multigraph(out.read_text())
    assert g.is_regular(2)
    # every file gen and expander write holds the one-string writer's bytes
    expected = {
        "e3cnf": formats.cnf_to_dimacs(cli.gen_e3cnf(6, 8, 5)),
        "regular": formats.multigraph_to_json(cli.gen_regular_graph(6, 2, 5)),
        "digraph": formats.digraph_to_json(cli.gen_digraph(6, 8, 5)),
    }
    for kind, text in expected.items():
        path = tmp_path / kind
        assert cli.main(["gen", "--kind", kind, "--n", "6", "--m", "8", "--d", "2", "--seed", "5", "--out", str(path)]) == 0
        assert path.read_bytes() == text.encode()
    path = tmp_path / "expander.json"
    assert cli.main(["expander", "--n", "6", "--p", "3/2", "--seed", "3", "--out", str(path)]) == 0
    graph, _ = build_expander(6, Fraction(3, 2), 3)
    assert path.read_bytes() == formats.multigraph_to_json(graph).encode()


@pytest.mark.parametrize("n, d", [(24, 8), (20, 6), (10, 9)])
def test_gen_regular_beyond_rejection_sampling(tmp_path, n, d):
    # stub-matching rejection gives up on each of these in its 1000 tries
    out = tmp_path / "g.json"
    assert cli.main(["gen", "--kind", "regular", "--n", str(n), "--d", str(d), "--seed", "0", "--out", str(out)]) == 0
    g = formats.json_to_multigraph(out.read_text())
    assert g.n == n and g.is_simple() and g.is_regular(d)


def test_gen_regular_keeps_rejection_sampled_graphs():
    # sha256 of the graphs rejection sampling gave before the pairing fallback
    # existed; the benchmark's reduce outputs are built from these sizes
    h = hashlib.sha256()
    for n, d in [(18, 3), (6, 3), (4, 2)]:
        for seed in range(10):
            h.update(formats.multigraph_to_json(cli.gen_regular_graph(n, d, seed)).encode())
    assert h.hexdigest() == "4b6efb03f9700e3c61ef3b34524c62e5aa8ad1af035cc64306c81bdfedd2e208"


def test_gen_regular_keeps_pairing_fallback_graphs():
    # sha256 of the graphs the pairing fallback gives; (10, 9) and (12, 8)
    # pair the stubs of the complement's degree and return its complement
    h = hashlib.sha256()
    for n, d in [(24, 8), (20, 6), (10, 9), (12, 8)]:
        for seed in range(3):
            h.update(formats.multigraph_to_json(cli.gen_regular_graph(n, d, seed)).encode())
    assert h.hexdigest() == "1844000dc86c45045aa33179082c0a724869b0d126cf83b42a928ee203bc8b4f"


@pytest.mark.parametrize("kind, n, m", [("e3cnf", 4, -1), ("digraph", 4, -1), ("digraph", -2, 1)])
def test_gen_rejects_negative_sizes(tmp_path, capsys, kind, n, m):
    out = tmp_path / "out"
    argv = ["gen", "--kind", kind, "--n", str(n), "--m", str(m), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.startswith(f"error: gen {kind} needs") and not out.exists()


def test_out_of_memory_exits_as_cap_exceeded(tmp_path, monkeypatch, capsys):
    # a step that cannot allocate its output ends like one past its cap
    def runner(state, params, seed):
        raise MemoryError("Unable to allocate 1.68 TiB for an array")

    monkeypatch.setitem(cli.STEPS, "blowup", ("digraph", "digraph", runner, None))
    pipe = pipeline_file(tmp_path, [{"name": "blowup", "params": {"t": 10**6}}])
    inp = write(tmp_path, "d.json", formats.digraph_to_json(Digraph(3, [(0, 1), (1, 2)])))
    argv = ["reduce", "--pipeline", pipe, "--in", inp, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: Unable to allocate 1.68 TiB for an array\n"


def test_console_script(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "f.cnf"
    proc = subprocess.run(
        [sys.executable, "-m", "gapchain.cli", "gen", "--kind", "e3cnf",
         "--n", "4", "--m", "2", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert formats.dimacs_to_cnf(out.read_text()).m == 2


def test_solve_more_problems(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=2)))
    assert cli.main(["solve", "--problem", "maxsat", "--in", cnf]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value ")
    assert "witness [" in out

    d = cli.gen_digraph(5, 8, seed=3)
    dp = write(tmp_path, "d.json", formats.digraph_to_json(d))
    assert cli.main(["solve", "--problem", "fvs", "--in", dp]) == 0

    h = formats.bipartite_to_json(BipartiteGraph(2, 2, [(0, 0), (1, 1)]))
    hp = write(tmp_path, "h.json", h)
    assert cli.main(["solve", "--problem", "chain", "--in", hp]) == 0
    assert "value 1" in capsys.readouterr().out


_DESK_BUILD_T = {"d_g": 2, "mode": "desk", "overrides": {"z": 2, "phi": "1/2", "p_h": 1, "p_hi": 1}}
# (key, value, exit code) for one desk override of build_t
_OVERRIDE_CASES = [
    ("z", "x", cli.EXIT_PARSE),
    ("z", "2", cli.EXIT_PARSE),
    ("z", 2.5, cli.EXIT_PARSE),
    ("z", True, cli.EXIT_PARSE),
    ("phi", "x", cli.EXIT_PARSE),
    ("phi", "1/0", cli.EXIT_PARSE),
    ("phi", [1], cli.EXIT_PARSE),
    ("phi", None, cli.EXIT_PARSE),
    ("p_h", "x", cli.EXIT_PARSE),
    ("p_h", False, cli.EXIT_PARSE),
    ("p_hi", "x", cli.EXIT_PARSE),
    ("p_hi", [1, "x"], cli.EXIT_PARSE),
    ("p_hi", {"a": 1}, cli.EXIT_PARSE),
    ("phi", 0, cli.EXIT_DOMAIN),
    ("p_hi", [1], cli.EXIT_DOMAIN),
    ("phi", 1, cli.EXIT_OK),
    ("gamma", "1/8", cli.EXIT_DOMAIN),  # gamma is (beta - alpha)/4, no override
    ("p_hi", ["1", 1], cli.EXIT_OK),
]
_GRAPH = formats.multigraph_to_json(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
_DIGRAPH = formats.digraph_to_json(Digraph(2, [(0, 1), (1, 0)]))


@pytest.mark.parametrize(
    "spec, payload, code",
    [
        ({"gap": "1/2", "steps": []}, _GRAPH, cli.EXIT_PARSE),
        ({"gap": ["1/2", "1", "3"], "steps": []}, _GRAPH, cli.EXIT_PARSE),
        ([{"name": "build_t"}], _GRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": ["build_t"]}]}, _GRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "build_t", "params": [1]}]}, _GRAPH, cli.EXIT_PARSE),
        ({"gap": ["1/2", "1"], "steps": [{"name": "build_t", "params": {**_DESK_BUILD_T, "overrides": [1]}}]},
         _GRAPH, cli.EXIT_PARSE),
        ({"gap": ["1/2", "1"], "steps": [{"name": "build_t", "params": {**_DESK_BUILD_T, "d_g": "x"}}]},
         _GRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "build_t", "params": _DESK_BUILD_T}]}, _GRAPH, cli.EXIT_DOMAIN),
        ({"steps": [{"name": "ola_to_chain", "params": {"k": "x"}}]}, _GRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "ola_to_chain", "params": {"k": 2.0}}]}, _GRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "blowup", "params": {"t": "x"}}]}, _DIGRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "blowup", "params": {"t": True}}]}, _DIGRAPH, cli.EXIT_PARSE),
        ({"steps": [{"name": "blowup", "params": {"t": 2}}]}, _DIGRAPH, cli.EXIT_OK),
        ({"gap": ["1/2", "1"], "steps": [{"name": "build_t", "params": _DESK_BUILD_T}]}, _GRAPH, cli.EXIT_OK),
    ]
    + [
        ({"gap": ["1/2", "1"], "steps": [{"name": "build_t", "params": {
            **_DESK_BUILD_T, "overrides": {**_DESK_BUILD_T["overrides"], key: value}}}]}, _GRAPH, code)
        for key, value, code in _OVERRIDE_CASES
    ],
    ids=[
        "gap-string", "gap-three-entries", "top-level-list", "name-list", "params-list",
        "overrides-list", "d_g-string", "build_t-no-gap", "k-string", "k-float", "t-string",
        "t-bool", "t-valid", "build_t-valid",
    ]
    + [f"override-{key}-{value!r}" for key, value, _ in _OVERRIDE_CASES],
)
def test_malformed_pipeline_spec_exit_codes(tmp_path, spec, payload, code):
    pipe = write(tmp_path, "pipe.json", json.dumps(spec))
    inp = write(tmp_path, "in.json", payload)
    argv = ["reduce", "--pipeline", pipe, "--in", inp, "--out", str(tmp_path / "out"), "--seed", "4"]
    assert cli.main(argv) == code


def test_verify_summary_names_unverified_steps(tmp_path, capsys):
    path = write(tmp_path, "g.json", formats.multigraph_to_json(MultiGraph(5, [(i, i + 1) for i in range(4)])))
    chain = [{"name": "ola_to_chain", "params": {"k": 8}}]
    pipe = pipeline_file(tmp_path, chain + [{"name": "chain_to_threshold"}], gap=("0", "1"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", path]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "[SKIP] chain_to_threshold: no verifier" in lines
    assert lines[-1] == "verified 1 of 2 steps; no verifier: chain_to_threshold"
    assert "all step identities verified" not in lines

    pipe = pipeline_file(tmp_path, chain + [{"name": "chain_to_interval"}], gap=("0", "1"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", path]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all step identities verified"
    assert all(line.startswith("[PASS]") for line in lines[:-1])


def test_verify_solves_each_state_once(tmp_path, monkeypatch):
    from gapchain import oracle

    solved = Counter()
    for name in ("max_nae_exact", "max_sat_exact", "max_cut_exact", "min_fas_exact"):
        def counting(instance, *args, _real=getattr(oracle, name), _name=name, **kwargs):
            solved[(_name, instance)] += 1
            return _real(instance, *args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)

    cnf = write(tmp_path, "f.cnf", formats.cnf_to_dimacs(cli.gen_e3cnf(4, 3, seed=2)))
    pipe = pipeline_file(
        tmp_path,
        [
            {"name": "e3sat_to_nae4sat"},
            {"name": "nae4sat_to_nae3sat"},
            {"name": "nae3sat_to_multicut"},
            {"name": "multicut_to_simplecut"},
        ],
    )
    # the simple-cut output is past the max-cut cap, so the last step is capped
    assert cli.main(["verify", "--pipeline", pipe, "--in", cnf]) == cli.EXIT_CAP
    triangle = write(tmp_path, "d.json", formats.digraph_to_json(Digraph(3, [(0, 1), (1, 2), (2, 0)])))
    pipe = pipeline_file(tmp_path, [{"name": "fvs_to_fas"}, {"name": "subdivide_arcs"}], gap=("1/4", "1/2"))
    assert cli.main(["verify", "--pipeline", pipe, "--in", triangle]) == cli.EXIT_OK

    assert {name for name, _ in solved} == {"max_nae_exact", "max_sat_exact", "max_cut_exact", "min_fas_exact"}
    assert [key for key, calls in solved.items() if calls > 1] == []


def test_readme_lists_every_step_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Pipeline step names:", 1)[1].split("\n## ", 1)[0]
    names = {name for name in re.findall(r"`([^`]+)`", section) if not name.startswith("params.")}
    assert names == set(cli.STEPS)


README_CAP_LABELS = {
    "arrangement": ("ola_exact",),
    "max cut / bisection / SAT / NAE": (
        "max_cut_exact", "min_bisection_exact", "max_sat_exact", "max_nae_exact",
    ),
    "feedback arc set": ("min_fas_exact",),
    "feedback vertex set": ("min_fvs_exact",),
    "fill-in": ("min_fill_in_exact",),
    "chain completion": ("min_chain_completion_exact",),
    "interval recognition": ("is_interval", "is_proper_interval"),
    "class completion": ("min_completion_exact",),
}


def _missing_pairs(count):
    """A simple graph that lacks exactly `count` vertex pairs."""
    k = next(k for k in itertools.count() if k * (k - 1) // 2 >= count)
    return MultiGraph(k, list(itertools.combinations(range(k), 2))[count:])


# the arguments that give each capped oracle an instance of the given size
_AT_SIZE = {
    "ola_exact": lambda n: (MultiGraph(n),),
    "max_cut_exact": lambda n: (MultiGraph(n),),
    # an odd vertex count is refused for its parity first
    "min_bisection_exact": lambda n: (MultiGraph(n + n % 2),),
    "max_sat_exact": lambda n: (CnfFormula(n, ()),),
    "max_nae_exact": lambda n: (CnfFormula(n, ()),),
    "min_fas_exact": lambda n: (Digraph(n),),
    "min_fvs_exact": lambda n: (Digraph(n),),
    "min_fill_in_exact": lambda n: (MultiGraph(n),),
    "min_chain_completion_exact": lambda n: (BipartiteGraph(n, 1),),
    "is_interval": lambda n: (MultiGraph(n),),
    "is_proper_interval": lambda n: (MultiGraph(n),),
    "min_completion_exact": lambda n: (_missing_pairs(n), "chordal"),
}


def _calls_check_cap(fn) -> bool:
    """Whether fn calls oracle._check_cap, itself or through private helpers."""
    names = fn.__code__.co_names
    return "_check_cap" in names or any(
        name.startswith("_") and inspect.isfunction(getattr(oracle, name, None))
        and _calls_check_cap(getattr(oracle, name))
        for name in names
    )


def test_readme_size_caps_match_oracle_defaults():
    """Each README cap is the size its oracles refuse one above, and the
    README lists every public oracle that enforces a cap."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Size caps", 1)[1]
    paragraph = section.split("degrading:", 1)[1].split("The caps are fixed", 1)[0]
    listed = {}
    for item in " ".join(paragraph.split()).rstrip(".").split(", "):
        label, number = re.fullmatch(r"(.+?) (\d+)( .*)?", item).group(1, 2)
        listed[label] = int(number)
    assert set(listed) == set(README_CAP_LABELS)
    for label, names in README_CAP_LABELS.items():
        for name in names:
            with pytest.raises(CapExceededError, match=f"exceeds cap {listed[label]}$"):
                getattr(oracle, name)(*_AT_SIZE[name](listed[label] + 1))
    capped = {
        name for name, fn in vars(oracle).items()
        if inspect.isfunction(fn) and not name.startswith("_") and _calls_check_cap(fn)
    }
    assert capped == {name for names in README_CAP_LABELS.values() for name in names}


def test_override_parse_errors_name_the_key(tmp_path, capsys):
    inp = write(tmp_path, "in.json", _GRAPH)
    for key, value, code in _OVERRIDE_CASES:
        if code != cli.EXIT_PARSE:
            continue
        params = {**_DESK_BUILD_T, "overrides": {**_DESK_BUILD_T["overrides"], key: value}}
        pipe = pipeline_file(tmp_path, [{"name": "build_t", "params": params}])
        assert cli.main(["reduce", "--pipeline", pipe, "--in", inp, "--out", str(tmp_path / "out")]) == code
        assert f"parse error: overrides.{key}" in capsys.readouterr().err


def _readme_cli_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `gapchain` line of the README's CLI block exits 0, heredocs included."""
    monkeypatch.chdir(tmp_path)
    lines = iter(_readme_cli_block().replace("\\\n", "").splitlines())
    ran = []
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = itertools.takewhile(lambda text: text != "EOF", lines)
            Path(heredoc.group(1)).write_text("\n".join(body) + "\n")
        elif line.startswith("gapchain "):
            argv = shlex.split(line)[1:]
            assert cli.main(argv) == cli.EXIT_OK, line
            ran.append(argv)
    assert ["verify", "--pipeline", "check.json", "--in", "f.cnf", "--seed", "7"] in ran
    assert any("--provenance" in argv for argv in ran)

    # the four-step reduce pipeline stays past the max cut cap, as the README says
    capsys.readouterr()
    assert cli.main(["verify", "--pipeline", "pipe.json", "--in", "f.cnf", "--seed", "7"]) == cli.EXIT_CAP
    out = capsys.readouterr().out
    assert "[SKIP] multicut_to_simplecut" in out
    assert "[SKIP] nae3sat_to_multicut" not in out
