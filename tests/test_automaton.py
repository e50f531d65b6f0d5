"""Program compilation, closure predicates and the step-matching check."""

import random

from oracles import subterm_count
from randgen import random_program, random_state
from zippersem.ast import (FALSE, TRUE, Assign, Cond, Seq, Skip, Var,
                           parse_program)
from zippersem.automaton import (SILENT, Automaton, Edge, action_effect,
                                 action_of, check_simulation, edges_closed,
                                 edges_of, is_regular, nodes_closed,
                                 program_automaton, render_action, step_image)
from zippersem.semantics import run_trace
from zippersem.zipper import (TOP, Cursor, Location, all_locations,
                              render_path)

LOOP = parse_program("while (e) { x := true; y := false }")


def _cursor(c, entering=True, path=TOP):
    return Cursor(Location(c, path), entering)


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
    assert img[0].entering and render_path(img[0].loc.path) == "body"
    assert img[1] == _cursor(LOOP, entering=False)


def test_step_image_sizes():
    rng = random.Random(11)
    for _ in range(100):
        c = random_program(rng)
        for loc in all_locations(c):
            assert 1 <= len(step_image(Cursor(loc, True))) <= 2
            assert len(step_image(Cursor(loc, False))) <= 1


def test_action_of():
    assert action_of(_cursor(Assign("x", TRUE))) is Assign("x", TRUE)
    assert action_of(_cursor(Assign("x", TRUE), entering=False)) is SILENT
    assert action_of(_cursor(Skip())) is SILENT
    assert action_of(_cursor(LOOP)) is SILENT
    # an entering assignment's action is the program's own Assign node
    rng = random.Random(12)
    for _ in range(200):
        for loc in all_locations(random_program(rng)):
            for c in (Cursor(loc, True), Cursor(loc, False)):
                if c.entering and isinstance(loc.focus, Assign):
                    assert action_of(c) is c.loc.focus
                else:
                    assert action_of(c) is SILENT


def test_edges_of_matches_step_image():
    cur = _cursor(LOOP)
    assert [(e.source, e.action, e.dest) for e in edges_of(cur)] == \
        [(cur, SILENT, dest) for dest in step_image(cur)]


def test_skip_automaton():
    aut = program_automaton(Skip())
    assert aut.init == _cursor(Skip())
    assert len(aut.nodes) == 2
    (edge,) = aut.edges
    assert edge.source == aut.init and edge.action == SILENT
    assert edge.dest == _cursor(Skip(), entering=False)


def test_loop_automaton_counts():
    aut = program_automaton(LOOP)
    assert len(aut.nodes) == 2 * subterm_count(LOOP) == 8
    # entering edges: while 2, seq 1, each assign 1; leaving edges: one per
    # non-root position, none for the root
    assert len(aut.edges) == 8
    assert sum(1 for e in aut.edges if e.action != SILENT) == 2
    assert {render_action(e.action) for e in aut.edges if e.action != SILENT} \
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
        assert nodes_closed(aut)
        assert edges_closed(aut)
        assert is_regular(aut)


def test_closure_predicates_detect_holes():
    aut = program_automaton(Seq(Skip(), Skip()))
    # dropping the last node leaves a successor outside the node list
    chopped = Automaton(aut.nodes[:-1], aut.edges, aut.init)
    assert not nodes_closed(chopped)
    # dropping an edge breaks edge closure but not node closure
    missing = Automaton(aut.nodes, aut.edges[:-1], aut.init)
    assert nodes_closed(missing)
    assert not edges_closed(missing)
    # evicting the start node breaks regularity
    assert not is_regular(Automaton(aut.nodes[1:], aut.edges, aut.init))


def test_is_regular_checks_endpoints():
    assert not is_regular(Automaton((1,), (Edge(1, SILENT, 2),), 1))
    assert not is_regular(Automaton((1,), (Edge(2, SILENT, 1),), 1))
    assert is_regular(Automaton((1, 2), (Edge(1, SILENT, 2),), 1))


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
