"""Program compilation, closure predicates and the step-matching check."""

import random
import sys

from oracles import cursor_automaton, edges_of, subterm_count
from randgen import random_program, random_state
from zippersem import automaton, zipper
from zippersem.ast import (FALSE, TRUE, Assign, Cond, Seq, Skip, Var,
                           parse_program)
from zippersem.automaton import (SILENT, Automaton, action_effect,
                                 action_of, check_simulation, is_regular,
                                 program_automaton, render_action,
                                 step_image, step_image_closed)
from zippersem.semantics import run_trace
from zippersem.zipper import TOP, Cursor, all_locations, render_path

LOOP = parse_program("while (e) { x := true; y := false }")
# a chain and a nest deeper than the default recursion limit
CHAIN = parse_program("; ".join(f"x{i % 10} := true" for i in range(1100)))
NEST = parse_program("while (a) { " * 1000 + "x := true"
                     + "; y := false }" * 1000)


def _cursor(c, entering=True, path=TOP):
    return Cursor(c, path, entering)


def test_action_effect():
    s = {"x": TRUE}
    assert action_effect(SILENT, s) == {"x": TRUE}
    assert action_effect(Assign("y", FALSE), s) == {"x": TRUE, "y": FALSE}
    assert action_effect(Assign("x", FALSE), s) == {"x": FALSE}
    # the input state is never mutated
    assert s == {"x": TRUE}


def test_render_action():
    assert render_action(SILENT) == "τ"
    assert render_action(Assign("x", TRUE)) == "x:=true"


def test_step_image_examples():
    assert step_image(_cursor(Skip())) == [_cursor(Skip(), entering=False)]
    assert step_image(_cursor(Skip(), entering=False)) == []
    img = step_image(_cursor(LOOP))
    assert len(img) == 2
    assert img[0].entering and render_path(img[0].path) == "body"
    assert img[1] == _cursor(LOOP, entering=False)


def test_step_image_sizes():
    rng = random.Random(11)
    for _ in range(100):
        c = random_program(rng)
        for focus, path in all_locations(c):
            assert 1 <= len(step_image(Cursor(focus, path, True))) <= 2
            assert len(step_image(Cursor(focus, path, False))) <= 1


def test_action_of():
    assert action_of(_cursor(Assign("x", TRUE))) is Assign("x", TRUE)
    assert action_of(_cursor(Assign("x", TRUE), entering=False)) is SILENT
    assert action_of(_cursor(Skip())) is SILENT
    assert action_of(_cursor(LOOP)) is SILENT
    # an entering assignment's action is the program's own Assign node
    rng = random.Random(12)
    for _ in range(200):
        for focus, path in all_locations(random_program(rng)):
            for c in (Cursor(focus, path, True), Cursor(focus, path, False)):
                if c.entering and isinstance(focus, Assign):
                    assert action_of(c) is c.focus
                else:
                    assert action_of(c) is SILENT


def test_edges_of_matches_step_image():
    cur = _cursor(LOOP)
    assert edges_of(cur) == \
        [(cur, SILENT, dest) for dest in step_image(cur)]


def test_skip_automaton():
    aut = program_automaton(Skip())
    assert aut.init == _cursor(Skip())
    assert len(aut.nodes) == 2
    ((source, action, dest),) = aut.edges
    assert source == aut.init and action == SILENT
    assert dest == _cursor(Skip(), entering=False)


def test_loop_automaton_counts():
    aut = program_automaton(LOOP)
    assert len(aut.nodes) == 2 * subterm_count(LOOP) == 8
    # entering edges: while 2, seq 1, each assign 1; leaving edges: one per
    # non-root position, none for the root
    assert len(aut.edges) == 8
    assert sum(1 for _, a, _ in aut.edges if a != SILENT) == 2
    assert {render_action(a) for _, a, _ in aut.edges if a != SILENT} \
        == {"x:=true", "y:=false"}


def test_node_count_is_twice_the_subterm_count():
    rng = random.Random(12)
    for _ in range(100):
        c = random_program(rng)
        assert len(program_automaton(c).nodes) == 2 * subterm_count(c)


def test_compiled_automata_are_closed_and_regular():
    rng = random.Random(13)
    for _ in range(100):
        aut = program_automaton(random_program(rng))
        assert step_image_closed(aut) == (True, True)
        assert is_regular(aut)


def test_compile_matches_the_cursor_route():
    # compared as bools and counted, so a failure prints no cursor lists
    rng = random.Random(5)
    programs = [random_program(rng) for _ in range(1000)] + [CHAIN, NEST]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        same = sum(program_automaton(c) == cursor_automaton(c)
                   for c in programs)
    finally:
        sys.setrecursionlimit(limit)
    assert same == len(programs), same


def test_compiled_edges_end_at_the_node_objects():
    rng = random.Random(15)
    shared = 0
    for c in [random_program(rng) for _ in range(200)] + [CHAIN, NEST]:
        aut = program_automaton(c)
        ids = set(map(id, aut.nodes))
        shared += id(aut.init) in ids and all(
            id(s) in ids and id(d) in ids for s, _, d in aut.edges)
    assert shared == 202, shared


def test_compile_takes_no_cursor_step(monkeypatch):
    # compilation reads the location table: the cursor-by-cursor static
    # map and the semantics' advance are never called
    def refuse(*args):
        raise AssertionError("compilation stepped a cursor")

    for name in ("step_image", "action_of", "advance"):
        monkeypatch.setattr(automaton, name, refuse)
    monkeypatch.setattr(zipper, "advance", refuse)
    rng = random.Random(16)
    nodes = sum(len(program_automaton(random_program(rng)).nodes)
                for _ in range(200))
    assert nodes > 400


def test_closure_predicates_detect_holes():
    aut = program_automaton(Seq(Skip(), Skip()))
    # dropping the last node leaves a successor outside the node list
    chopped = aut.nodes[:-1]
    # dropping the first edge loses a step of a node that is still listed
    missing = aut.edges[1:]
    # an edge that no step takes: edge closure is an inclusion, so it holds
    extra = aut.edges + ((aut.init, SILENT, aut.init),)
    for nodes, edges, verdicts in [
            (chopped, aut.edges, (False, True)),
            (aut.nodes, missing, (True, False)),
            (chopped, missing, (False, False)),
            (aut.nodes, extra, (True, True))]:
        assert step_image_closed(Automaton(nodes, edges, aut.init)) == verdicts
    # evicting the start node breaks regularity
    assert not is_regular(Automaton(aut.nodes[1:], aut.edges, aut.init))


def test_is_regular_checks_endpoints():
    assert not is_regular(Automaton((1,), ((1, SILENT, 2),), 1))
    assert not is_regular(Automaton((1,), ((2, SILENT, 1),), 1))
    assert is_regular(Automaton((1, 2), ((1, SILENT, 2),), 1))


def test_check_simulation_counts_matched_steps():
    report = check_simulation(Skip(), {}, 10)
    assert report.ok
    assert report.status == "terminated"
    assert report.steps_checked == 1
    assert report.violation is None


def test_check_simulation_on_stuck_prefix():
    report = check_simulation(Cond(Var("b"), Skip(), Skip()), {}, 10)
    assert report.ok
    assert report.status == "stuck"
    assert report.steps_checked == 0


def test_check_simulation_respects_step_limit():
    report = check_simulation(parse_program("while (true) { skip }"), {}, 7)
    assert report.ok
    assert report.status == "step-limit"
    assert report.steps_checked == 7


def test_check_simulation_random_programs():
    rng = random.Random(14)
    for _ in range(100):
        c = random_program(rng)
        state = random_state(rng)
        report = check_simulation(c, state, max_steps=300)
        assert report.ok
        assert report.steps_checked == len(run_trace(c, state, 300).steps)
