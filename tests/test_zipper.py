"""Locations, reconstruction and the advance function."""

import random

from oracles import reconstruct, reconstruct_loc, subterm_count
from randgen import random_program
from zippersem.ast import (FALSE, TRUE, Assign, Cond, Seq, Skip, Var, While,
                           parse_program)
from zippersem.zipper import (TOP, CondElse, CondThen, Cursor, Location,
                              SeqLeft, SeqRight, Top, WhileBody, advance,
                              all_locations, cursors_of, render_cursor,
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
        Location(c, TOP),
        Location(Skip(), SeqLeft(TOP, Skip())),
        Location(Skip(), SeqRight(Skip(), TOP)),
    ]


def test_all_locations_loop_paths_in_preorder():
    assert [render_path(loc.path) for loc in all_locations(LOOP)] == [
        "@top", "body", "body/seqL", "body/seqR"]


def test_advance_equations():
    e = Var("e")
    # at the root, leaving stays put with the flag down
    assert advance(Skip(), TOP) == Cursor(Location(Skip(), TOP), False)
    # finishing the first arm of a seq enters the second arm
    assert advance(A1, SeqLeft(TOP, A2)) == \
        Cursor(Location(A2, SeqRight(A1, TOP)), True)
    # finishing the second arm leaves the whole seq, the original node
    assert advance(A2, SeqRight(A1, TOP)) == Cursor(Location(BODY, TOP), False)
    assert advance(A2, SeqRight(A1, TOP)).loc.focus is BODY
    # finishing either branch leaves the conditional
    c = Cond(e, A1, A2)
    assert advance(A1, CondThen(e, TOP, A2)) == Cursor(Location(c, TOP), False)
    assert advance(A2, CondElse(e, A1, TOP)) == Cursor(Location(c, TOP), False)
    # finishing a loop body re-enters the loop header
    assert advance(BODY, WhileBody(e, TOP)) == Cursor(Location(LOOP, TOP), True)


def test_cursors_of_gives_both_flags_entering_first():
    locs = all_locations(Seq(Skip(), Skip()))
    cursors = cursors_of(locs)
    assert len(cursors) == 6
    for i, cur in enumerate(cursors):
        assert cur.loc == locs[i // 2]
        assert cur.entering == (i % 2 == 0)


def test_render_path_and_cursor():
    assert render_path(TOP) == "@top"
    assert render_cursor(Cursor(Location(Skip(), TOP), True)) == "@top ↓"
    assert render_cursor(Cursor(Location(Skip(), TOP), False)) == "@top ↑"
    deep = all_locations(Cond(Var("b"), Skip(), While(Var("e"), Skip())))
    assert [render_path(loc.path) for loc in deep] == [
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
        for loc in locs:
            if isinstance(loc.path, Top):
                continue
            assert advance(loc.focus, loc.path).loc in locs
