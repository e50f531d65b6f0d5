"""Locations, cursors, reconstruction and the advance function."""

import gc
import random
from collections import Counter

from oracles import reconstruct, reconstruct_loc, subterm_count
from randgen import random_program
from zippersem.ast import (FALSE, TRUE, Assign, Cond, HashConsed, Seq, Skip,
                           Var, While, parse_program)
from zippersem.automaton import program_automaton
from zippersem.zipper import (TOP, CondElse, CondThen, Cursor, SeqLeft,
                              SeqRight, Top, WhileBody, advance, all_locations,
                              render_path)

LOOP = parse_program("while (e) { x := true; y := false }")
A1 = Assign("x", TRUE)
A2 = Assign("y", FALSE)
BODY = Seq(A1, A2)


def test_reconstruct_at_top_is_identity():
    assert reconstruct(Skip(), TOP) == Skip()
    assert reconstruct(LOOP, TOP) == LOOP


def test_reconstruct_left_arm_of_loop_body():
    path = SeqLeft(WhileBody(Var("e"), TOP), A2)
    assert reconstruct(A1, path) == LOOP
    assert render_path(path) == "body/seqL"


def test_reconstruct_right_arm():
    assert reconstruct(A2, SeqRight(A1, TOP)) == BODY


def test_reconstruct_cond_frames():
    c = Cond(Var("b"), Skip(), A1)
    assert reconstruct(Skip(), CondThen(Var("b"), TOP, A1)) == c
    assert reconstruct(A1, CondElse(Var("b"), Skip(), TOP)) == c


def test_all_locations_of_seq():
    c = Seq(Skip(), Skip())
    assert all_locations(c) == [
        (c, TOP),
        (Skip(), SeqLeft(TOP, Skip())),
        (Skip(), SeqRight(Skip(), TOP)),
    ]


def test_all_locations_loop_paths_in_preorder():
    assert [render_path(path) for _, path in all_locations(LOOP)] == [
        "@top", "body", "body/seqL", "body/seqR"]


def test_advance_equations():
    e = Var("e")
    # at the root, leaving stays put with the flag down
    assert advance(Skip(), TOP) == Cursor(Skip(), TOP, False)
    # finishing the first arm of a seq enters the second arm
    assert advance(A1, SeqLeft(TOP, A2)) == Cursor(A2, SeqRight(A1, TOP), True)
    # finishing the second arm leaves the whole seq, the original node
    assert advance(A2, SeqRight(A1, TOP)) == Cursor(BODY, TOP, False)
    assert advance(A2, SeqRight(A1, TOP)).focus is BODY
    # finishing either branch leaves the conditional
    c = Cond(e, A1, A2)
    assert advance(A1, CondThen(e, TOP, A2)) == Cursor(c, TOP, False)
    assert advance(A2, CondElse(e, A1, TOP)) == Cursor(c, TOP, False)
    # finishing a loop body re-enters the loop header
    assert advance(BODY, WhileBody(e, TOP)) == Cursor(LOOP, TOP, True)


def test_program_nodes_give_both_flags_entering_first():
    c = Seq(Skip(), Skip())
    locs = all_locations(c)
    cursors = program_automaton(c).nodes
    assert len(cursors) == 6
    for i, cur in enumerate(cursors):
        assert (cur.focus, cur.path) == locs[i // 2]
        assert cur.entering == (i % 2 == 0)


def test_render_path():
    assert render_path(TOP) == "@top"
    deep = all_locations(Cond(Var("b"), Skip(), While(Var("e"), Skip())))
    assert [render_path(path) for _, path in deep] == [
        "@top", "condT", "condF", "condF/body"]


def test_random_reconstruction_laws():
    rng = random.Random(7)
    for _ in range(200):
        c = random_program(rng)
        locs = all_locations(c)
        assert len(locs) == subterm_count(c)
        assert len(set(locs)) == len(locs)
        for loc in locs:
            assert reconstruct_loc(loc) == c


def test_random_advance_stays_inside_location_set():
    rng = random.Random(8)
    for _ in range(200):
        c = random_program(rng)
        locs = set(all_locations(c))
        for focus, path in locs:
            if isinstance(path, Top):
                continue
            cur = advance(focus, path)
            assert (cur.focus, cur.path) in locs


def _live_by_type():
    counts = Counter()
    for ref in list(HashConsed._live.values()):
        node = ref()
        if node is not None:
            counts[type(node)] += 1
    return counts


def test_compile_interns_its_path_frames_and_no_program_point():
    # names no other test uses, so no frame of it is live yet
    c = parse_program(
        "while (q1) { r1 := true; if (q2) { r2 := false } else { skip } }")
    gc.collect()
    before = _live_by_type()
    aut = program_automaton(c)
    after = _live_by_type()
    locs = all_locations(c)
    expected = Counter(type(path) for _, path in locs if path is not TOP)
    assert sum(expected.values()) == 5
    assert {t: after[t] - before[t] for t in after | before
            if after[t] != before[t]} == expected
    assert len(set(aut.nodes)) == len(aut.nodes) == 2 * len(locs)
    assert all(type(n) is Cursor for n in aut.nodes)


def test_compile_tracks_under_five_objects_per_node():
    # each path frame is itself, its key tuple and the weak reference that
    # holds the key; each cursor is one tuple, and each edge another tuple
    # with a fresh destination cursor
    c = parse_program("; ".join(f"t{i} := true" for i in range(2000)))
    gc.collect()
    objects = len(gc.get_objects())
    aut = program_automaton(c)
    # counts only: a failing assertion over these cursors would print
    # every focus whole
    nodes, added = len(aut.nodes), len(gc.get_objects()) - objects
    assert nodes == 7998
    assert added < 5 * nodes
