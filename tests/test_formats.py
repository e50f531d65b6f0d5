"""JSON and DOT serialization, node renaming, trace rendering."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import position_renaming
from randgen import random_automaton, random_program, random_state
from zippersem.ast import FALSE, TRUE, Assign, parse_program
from zippersem.automaton import (SILENT, Automaton, Edge, is_regular,
                                 program_automaton)
from zippersem.formats import (action_from_json, automaton_dot,
                               closed_automaton_dot, closed_automaton_json,
                               closed_automaton_json_text,
                               generic_automaton_json_text, load_automaton,
                               program_automaton_json,
                               program_automaton_json_text, render_node,
                               render_state, trace_json_text, trace_text)
from zippersem.semantics import run_trace
from zippersem.tauclose import NodeSet, close_automaton

LOOP = parse_program("while (true) { x := true; y := false }")


def _canonical(text):
    """The text json.dumps gives for the value text parses to."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_json_writers_write_the_bytes_of_json_dumps(seed):
    # every writer on a random program's automaton and its closure, a
    # random automaton and its closure, and the program's traces
    rng = random.Random(seed)
    c = random_program(rng)
    aut = program_automaton(c)
    m = random_automaton(rng)
    state = random_state(rng)
    texts = [program_automaton_json_text(aut), generic_automaton_json_text(aut),
             closed_automaton_json_text(aut, close_automaton(aut)),
             generic_automaton_json_text(m),
             closed_automaton_json_text(m, close_automaton(m))]
    texts += [trace_json_text(run_trace(c, state, limit))
              for limit in (0, 1, 200)]
    for text in texts:
        assert text == _canonical(text)


def test_json_writers_on_empty_and_shared_parts():
    x_true = Assign("x", TRUE)
    no_edges = Automaton((1,), (), 1)
    shared = Automaton(tuple(range(6)), tuple(
        Edge(i, x_true if i % 3 else SILENT, (i + 1) % 6) for i in range(6))
        + (Edge(0, Assign("x", FALSE), 0),), 0)
    labels = load_automaton({"nodes": ['sa"y', "é✓\u2028", 2.5, None],
                             "edges": [], "init": 'sa"y'})
    texts = [generic_automaton_json_text(no_edges),
             closed_automaton_json_text(no_edges, close_automaton(no_edges)),
             generic_automaton_json_text(shared),
             closed_automaton_json_text(shared, close_automaton(shared)),
             generic_automaton_json_text(labels),
             trace_json_text(run_trace(parse_program("skip"), {}, 10))]
    for text in texts:
        assert text == _canonical(text)
    assert '"edges": [],' in texts[0]
    assert json.loads(texts[0]) == {
        "edges": [], "init": 0, "nodes": [{"id": 0, "label": "1"}]}
    edges = json.loads(texts[2])["edges"]
    assert [e["action"] for e in edges] == \
        [{"kind": "assign", "val": "true", "var": "x"} if i % 3
         else {"kind": "none"} for i in range(6)] \
        + [{"kind": "assign", "val": "false", "var": "x"}]
    assert '"state": {},' in texts[5]
    assert [n["label"] for n in json.loads(texts[4])["nodes"]] == \
        ['sa"y', "é✓\u2028", "2.5", "None"]


def test_action_json_roundtrip():
    for a, obj in ((SILENT, {"kind": "none"}),
                   (Assign("x", TRUE), {"kind": "assign", "val": "true", "var": "x"})):
        text = generic_automaton_json_text(Automaton((0,), (Edge(0, a, 0),), 0))
        assert json.loads(text)["edges"][0]["action"] == obj
        assert action_from_json(obj) is a
    with pytest.raises(ValueError):
        action_from_json({"kind": "jump"})
    with pytest.raises(ValueError):
        action_from_json("none")


def test_render_node_dispatch():
    aut = program_automaton(LOOP)
    assert render_node(aut.init) == "@top ↓"
    assert render_node(NodeSet.from_iter([2, 1])) == "{1, 2}"
    assert render_node(NodeSet.from_iter([aut.init])) == "{@top ↓}"
    assert render_node(7) == "7"


def test_program_automaton_json_shape():
    data = program_automaton_json(program_automaton(LOOP))
    assert data["init"] == 0
    assert [n["id"] for n in data["nodes"]] == list(range(8))
    assert data["nodes"][0]["path"] == "@top"
    assert data["nodes"][0]["flag"] is True
    assert data["nodes"][0]["focus"].startswith("while")
    assert len(data["edges"]) == 8
    kinds = [e["action"]["kind"] for e in data["edges"]]
    assert kinds.count("assign") == 2


def test_closed_json_members_are_base_ids(silent_fork):
    closed = close_automaton(silent_fork)
    data = closed_automaton_json(silent_fork, closed)
    assert data["nodes"][0] == {"id": 0, "members": [0, 1, 2]}
    assert data["init"] == 0
    assert len(data["edges"]) == 6
    assert all(e["action"]["kind"] == "assign" for e in data["edges"])


def test_load_automaton_accepts_bare_and_object_nodes(silent_fork):
    bare = {"nodes": [1, 2], "edges": [], "init": 1}
    assert load_automaton(bare).nodes == (1, 2)
    data = json.loads(generic_automaton_json_text(silent_fork))
    assert load_automaton(data) == position_renaming(silent_fork)


def test_load_automaton_rejects_garbage():
    with pytest.raises(ValueError):
        load_automaton([1, 2])
    with pytest.raises(ValueError):
        load_automaton({"nodes": [1]})
    with pytest.raises(ValueError):
        load_automaton({"nodes": [1], "edges": []})
    with pytest.raises(ValueError):
        load_automaton({"nodes": [{"label": "x"}], "edges": [], "init": 0})
    with pytest.raises(ValueError):
        load_automaton({"nodes": [1], "edges": [{"source": 1}], "init": 1})


def test_program_json_reimports_as_the_position_renaming():
    rng = random.Random(31)
    for _ in range(30):
        aut = program_automaton(random_program(rng))
        loaded = load_automaton(program_automaton_json(aut))
        assert loaded == position_renaming(aut)
        # a loaded action is the program's own Assign node
        numbered = load_automaton(json.loads(generic_automaton_json_text(aut)))
        assert [e.action for e in numbered.edges] == [e.action for e in aut.edges]
        assert all(f.action is e.action for e, f in zip(aut.edges, numbered.edges))


def test_rename_nodes_preserves_structure():
    rng = random.Random(32)
    for _ in range(30):
        m = random_automaton(rng)
        renamed = position_renaming(m)
        assert renamed.nodes == tuple(range(len(set(m.nodes))))
        assert len(renamed.edges) == len(m.edges)
        assert is_regular(renamed) == is_regular(m)
        labels = json.loads(generic_automaton_json_text(m))["nodes"]
        assert [n["id"] for n in labels] == list(renamed.nodes)


def test_renaming_commutes_with_closure_memberwise():
    rng = random.Random(33)
    for _ in range(30):
        m = random_automaton(rng)
        ids = {n: i for i, n in enumerate(dict.fromkeys(m.nodes))}
        closed_after = close_automaton(position_renaming(m))
        closed_before = close_automaton(m)

        def mapped(ns):
            return NodeSet.from_iter(ids[x] for x in ns)

        assert list(closed_after.nodes) == [mapped(ns) for ns in closed_before.nodes]
        assert closed_after.init == mapped(closed_before.init)
        assert {(e.source, e.action, e.dest) for e in closed_after.edges} == \
            {(mapped(e.source), e.action, mapped(e.dest))
             for e in closed_before.edges}


def test_numbered_automaton_json():
    aut = program_automaton(parse_program("skip"))
    data = json.loads(generic_automaton_json_text(aut))
    assert data == {
        "nodes": [{"id": 0, "label": "@top ↓"},
                  {"id": 1, "label": "@top ↑"}],
        "edges": [{"source": 0, "action": {"kind": "none"}, "dest": 1}],
        "init": 0,
    }


def test_dot_output_shape():
    aut = program_automaton(LOOP)
    dot = automaton_dot(aut)
    assert dot.startswith("digraph automaton {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == len(aut.edges) + 1  # plus the init marker
    assert 'n0 [label="@top ↓"];' in dot
    assert '"τ"' in dot and '"x:=true"' in dot


def test_dot_quotes_special_characters():
    dot = automaton_dot(load_automaton(
        {"nodes": ['sa"y', "back\\slash"], "edges": [], "init": 'sa"y'}))
    assert '[label="sa\\"y"];' in dot
    assert '[label="back\\\\slash"];' in dot


def test_dot_closed_labels(silent_fork):
    closed = close_automaton(silent_fork)
    dot = closed_automaton_dot(silent_fork, closed)
    assert '[label="{0,1,2}"];' in dot
    assert dot.count("->") == 7


def test_state_rendering():
    s = {"y": TRUE, "x": TRUE}
    assert render_state(s) == "{x=true, y=true}"
    assert render_state({}) == "{}"
    tr = run_trace(parse_program("skip"), s, 10)
    assert json.loads(trace_json_text(tr))[0]["state"] == {"x": "true", "y": "true"}


def test_trace_text_format():
    tr = run_trace(parse_program("x := true"), {}, 10)
    lines = trace_text(tr).splitlines()
    assert lines == [
        "0: init | ↓x := true @ @top | {}",
        "1: SAssign | ↑x := true @ @top | {x=true}",
    ]


def test_trace_json_rows():
    tr = run_trace(parse_program("skip"), {}, 10)
    assert json.loads(trace_json_text(tr)) == [
        {"step": 0, "rule": "init", "path": "@top", "flag": True, "state": {}},
        {"step": 1, "rule": "SEmpty", "path": "@top", "flag": False, "state": {}},
    ]
