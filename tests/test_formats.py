"""JSON and DOT serialization, node renaming, trace rendering."""

import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import closed_shape, node_set, position_renaming
from randgen import random_automaton, random_program, random_state
from zippersem import formats
from zippersem.ast import (FALSE, NULL, TRUE, Assign, Cond, Lit, Seq, Skip,
                           Var, While, parse_program, print_program,
                           value_literal)
from zippersem.automaton import (SILENT, Automaton, is_regular,
                                 program_automaton)
from zippersem.formats import (action_from_json, automaton_dot,
                               closed_automaton_dot,
                               closed_automaton_json_text,
                               generic_automaton_json_text, load_automaton,
                               numbered_automaton_dot,
                               program_automaton_json_text, render_node,
                               render_state, trace_json_text, trace_text)
from zippersem.semantics import run_trace
from zippersem.tauclose import close_automaton
from zippersem.zipper import all_locations, render_path

LOOP = parse_program("while (true) { x := true; y := false }")
# a nest whose trace rows print long foci and paths
NEST = parse_program("while (a) { " * 60 + "x := true" + "; y := false }" * 60)
# a chain deeper than the default recursion limit, and names that JSON
# escapes, each escaped apart from its neighbours
CHAIN = parse_program("; ".join(f"x{i % 10} := true" for i in range(1100)))
ODD = ['q"uote', "back\\slash", "bell\x07", "tab\t", "é\u2028✓", '\\"']
HOSTILE = Seq(Assign(ODD[0], TRUE), Cond(
    Var(ODD[1]), While(Var(ODD[2]), Seq(Assign(ODD[3], NULL), Skip())),
    While(Lit(FALSE), Seq(Assign(ODD[4], FALSE), Assign(ODD[5], TRUE)))))


def _canonical(text):
    """The text json.dumps gives for the value text parses to."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def _program_json_by_rows(aut):
    """The compiled automaton's JSON from a dict of rows, each node's
    focus printed and path rendered on its own."""
    ids = {n: i for i, n in enumerate(dict.fromkeys(aut.nodes))}

    def action(a):
        if a is SILENT:
            return {"kind": "none"}
        return {"kind": "assign", "val": value_literal(a.value), "var": a.name}

    return json.dumps({
        "edges": [{"action": action(a), "dest": ids[d], "source": ids[s]}
                  for s, a, d in aut.edges],
        "init": ids[aut.init],
        "nodes": [{"flag": n.entering, "focus": print_program(n.focus),
                   "id": i, "path": render_path(n.path)}
                  for n, i in ids.items()],
    }, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_json_writers_write_the_bytes_of_json_dumps(seed):
    # every writer on a random program's automaton and its closure, a
    # random automaton and its closure, and the program's traces; the
    # program's text is also its rows printed one by one
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
    assert texts[0] == _program_json_by_rows(aut)


def test_json_writers_on_empty_and_shared_parts():
    x_true = Assign("x", TRUE)
    no_edges = Automaton((1,), (), 1)
    shared = Automaton(tuple(range(6)), tuple(
        (i, x_true if i % 3 else SILENT, (i + 1) % 6) for i in range(6))
        + ((0, Assign("x", FALSE), 0),), 0)
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
        text = generic_automaton_json_text(Automaton((0,), ((0, a, 0),), 0))
        assert json.loads(text)["edges"][0]["action"] == obj
        assert action_from_json(obj) is a
    with pytest.raises(ValueError):
        action_from_json({"kind": "jump"})
    with pytest.raises(ValueError):
        action_from_json("none")


def test_render_node_dispatch():
    aut = program_automaton(LOOP)
    assert render_node(aut.init) == "@top ↓"
    assert render_node(aut.init._replace(entering=False)) == "@top ↑"
    assert render_node(node_set([2, 1])) == "{1, 2}"
    assert render_node(node_set([aut.init])) == "{@top ↓}"
    assert render_node(7) == "7"


def test_program_automaton_json_shape():
    data = json.loads(program_automaton_json_text(program_automaton(LOOP)))
    assert data["init"] == 0
    assert [n["id"] for n in data["nodes"]] == list(range(8))
    assert data["nodes"][0]["path"] == "@top"
    assert data["nodes"][0]["flag"] is True
    assert data["nodes"][0]["focus"].startswith("while")
    assert len(data["edges"]) == 8
    kinds = [e["action"]["kind"] for e in data["edges"]]
    assert kinds.count("assign") == 2


def test_program_json_of_deep_and_hostile_programs():
    # the chain, a nest deeper than the default recursion limit and the
    # hostile names
    nest = parse_program("while (a) { " * 600 + "x := true"
                         + "; y := false }" * 600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for c in (CHAIN, nest, HOSTILE):
            aut = program_automaton(c)
            assert program_automaton_json_text(aut) == _program_json_by_rows(aut)
    finally:
        sys.setrecursionlimit(limit)


def _escaped(s):
    return json.dumps(s, ensure_ascii=False)[1:-1]


def test_print_program_builds_each_text_from_its_childrens():
    # the program writer's route: every subterm printed children first,
    # each result kept in texts, gives the plain text, and its JSON
    # escaping when the escaper prints the names
    rng = random.Random(34)
    programs = [random_program(rng) for _ in range(200)]
    programs += [Seq(Seq(Assign("x", TRUE), Skip()), Skip()), HOSTILE, CHAIN]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for c in programs:
            texts, escaped = {}, {}
            for focus, _ in reversed(all_locations(c)):
                plain = print_program(focus)
                texts[focus] = print_program(focus, texts)
                escaped[focus] = print_program(focus, escaped, _escaped)
                assert texts[focus] == plain
                assert escaped[focus] == _escaped(plain)
    finally:
        sys.setrecursionlimit(limit)
    assert print_program(Seq(Skip(), Skip()), {Skip(): "S"}) == "S; S"


def test_closed_json_members_are_base_ids(silent_fork):
    closed = close_automaton(silent_fork)
    data = json.loads(closed_automaton_json_text(silent_fork, closed))
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
        loaded = load_automaton(json.loads(program_automaton_json_text(aut)))
        assert loaded == position_renaming(aut)
        # a loaded action is the program's own Assign node
        numbered = load_automaton(json.loads(generic_automaton_json_text(aut)))
        assert [a for _, a, _ in numbered.edges] == [a for _, a, _ in aut.edges]
        assert all(b is a for (_, a, _), (_, b, _) in zip(aut.edges, numbered.edges))
        # every layer builds its edges as plain tuples
        edges = aut.edges + loaded.edges + close_automaton(aut).edges
        assert all(type(e) is tuple for e in edges)


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
            return node_set(ids[x] for x in ns).members

        nodes, edges, init = closed_shape(closed_after)
        assert list(nodes) == [mapped(ns) for ns in closed_before.nodes]
        assert init == mapped(closed_before.init)
        assert set(edges) == \
            {(mapped(s), a, mapped(d)) for s, a, d in closed_before.edges}


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
    # an action's text goes into its edge template as it is
    dot = automaton_dot(Automaton((0, 1), ((0, Assign("a%d", TRUE), 1),), 0))
    assert '  n0 -> n1 [label="a%d:=true"];\n' in dot


def test_dot_copies_its_output_once():
    # labels share their path texts with the cursor of the other flag,
    # and edges their action's template, so the peak stays within the
    # text and the path texts it joins
    aut = program_automaton(parse_program(
        "while (a) { " + "; ".join(["skip"] * 1000) + " }"))
    for write in (automaton_dot, numbered_automaton_dot):
        tracemalloc.start()
        try:
            text = write(aut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * sys.getsizeof(text), write.__name__


def test_dot_quotes_special_characters():
    dot = automaton_dot(load_automaton(
        {"nodes": ['sa"y', "back\\slash"], "edges": [], "init": 'sa"y'}))
    assert '[label="sa\\"y"];' in dot
    assert '[label="back\\\\slash"];' in dot
    dot = numbered_automaton_dot(load_automaton(
        {"nodes": ['sa"y', "back\\slash"], "edges": [], "init": 'sa"y'}))
    assert 'n0 [label="0: sa\\"y"];' in dot
    assert 'n1 [label="1: back\\\\slash"];' in dot


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


def _trace_text_by_rows(trace):
    """The text trace with each row's focus printed and path rendered on
    its own."""
    rows = [(trace.start, "init"), *trace.steps]
    return "".join(
        f"{i}: {rule} | {'↓' if cfg.cursor.entering else '↑'}"
        f"{print_program(cfg.cursor.focus)} @ {render_path(cfg.cursor.path)}"
        f" | {render_state(cfg.state)}\n" for i, (cfg, rule) in enumerate(rows))


def test_trace_text_format():
    tr = run_trace(parse_program("x := true"), {}, 10)
    lines = trace_text(tr).splitlines()
    assert lines == [
        "0: init | ↓x := true @ @top | {}",
        "1: SAssign | ↑x := true @ @top | {x=true}",
    ]
    # the rows joined from shared texts are the rows printed one by one:
    # on names printed raw, a chain deeper than the recursion limit, and
    # random programs, terminated, stuck and cut off
    runs = [(HOSTILE, {ODD[1]: b, ODD[2]: b}) for b in (TRUE, FALSE, NULL)]
    runs.append((CHAIN, {}))
    rng = random.Random(30)
    runs += [(random_program(rng), random_state(rng)) for _ in range(20)]
    for c, state in runs:
        tr = run_trace(c, state, 5000)
        assert trace_text(tr) == _trace_text_by_rows(tr)


def test_trace_text_copies_its_output_once():
    # both trace writers: the text holds the output once; rows that
    # copied their cursor's texts, or a second copy of the text, would
    # take the peak past the bound, since rows join texts built once per
    # cursor by reference
    for c, state, bound in ((LOOP, {}, 3), (NEST, {"a": TRUE}, 1.5)):
        trace = run_trace(c, state, 20000)
        for write in (trace_text, trace_json_text):
            tracemalloc.start()
            try:
                text = write(trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * sys.getsizeof(text), (write.__name__, bound)


def test_trace_text_prints_each_focus_once_children_first(monkeypatch):
    # a visited focus prints once, with the texts of its visited children
    # at hand, instead of a walk per cursor over its whole subtree
    c = parse_program("while (a) { while (b) { x := true; b := false }; skip }")
    trace = run_trace(c, {"a": TRUE, "b": TRUE}, 200)
    visited = {cfg.cursor.focus for cfg in [trace.start] +
               [cfg for cfg, _ in trace.steps]}
    calls = []

    def spy(c, texts=(), name=str):
        calls.append((c, set(texts)))
        return print_program(c, texts, name)
    monkeypatch.setattr(formats, "print_program", spy)
    trace_text(trace)
    printed = [c for c, _ in calls]
    assert len(printed) == len(visited) and set(printed) == visited
    for c, texts in calls:
        children = {getattr(c, f) for f in type(c).__slots__}
        assert children & visited <= texts, print_program(c)


def test_trace_json_rows():
    tr = run_trace(parse_program("skip"), {}, 10)
    assert json.loads(trace_json_text(tr)) == [
        {"step": 0, "rule": "init", "path": "@top", "flag": True, "state": {}},
        {"step": 1, "rule": "SEmpty", "path": "@top", "flag": False, "state": {}},
    ]
