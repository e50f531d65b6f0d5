"""Small-step rules, traces, and a determinism oracle.

applicable_rules below re-states the eight rule premises directly instead
of calling sem_step, so determinism and rule selection are checked against
an independent transcription.
"""

import random

from oracles import reconstruct_loc
from randgen import random_program, random_state
from zippersem.ast import (FALSE, NULL, TRUE, Assign, Cond, Lit, Seq, Skip,
                           Var, While, parse_program)
from zippersem.automaton import action_effect, action_of, step_image
from zippersem.semantics import (STEP_LIMIT, STUCK, TERMINATED, Config,
                                 eval_expr, is_terminal, run_trace, sem_step)
from zippersem.zipper import TOP, Cursor, Top, all_locations, render_path

LOOP = parse_program("while (true) { x := true; y := false }")


def _cfg(c, entering=True, state=None, path=TOP):
    return Config(Cursor(c, path, entering), dict(state or {}))


def test_eval_expr():
    assert eval_expr(Lit(TRUE), {}) == TRUE
    assert eval_expr(Lit(NULL), {"x": TRUE}) == NULL
    assert eval_expr(Var("x"), {"x": FALSE}) == FALSE
    # unbound variables read as null
    assert eval_expr(Var("x"), {}) == NULL


def test_step_skip():
    nxt, rule = sem_step(_cfg(Skip()))
    assert rule == "SEmpty"
    assert nxt == _cfg(Skip(), entering=False)


def test_step_assign_updates_state():
    nxt, rule = sem_step(_cfg(Assign("x", TRUE), state={"y": FALSE}))
    assert rule == "SAssign"
    assert nxt.state == {"y": FALSE, "x": TRUE}
    assert not nxt.cursor.entering


def test_step_seq_descends_into_first_arm():
    c = Seq(Skip(), Assign("x", TRUE))
    nxt, rule = sem_step(_cfg(c))
    assert rule == "SSeq"
    assert nxt.cursor.entering
    assert nxt.cursor.focus == Skip()
    assert render_path(nxt.cursor.path) == "seqL"


def test_cond_rules_follow_the_state():
    c = Cond(Var("b"), Skip(), Assign("x", TRUE))
    nxt, rule = sem_step(_cfg(c, state={"b": TRUE}))
    assert rule == "SCondT" and nxt.cursor.focus == Skip()
    nxt, rule = sem_step(_cfg(c, state={"b": FALSE}))
    assert rule == "SCondF" and nxt.cursor.focus == Assign("x", TRUE)
    # null test: no rule applies
    assert sem_step(_cfg(c)) is None
    assert sem_step(_cfg(c, state={"b": NULL})) is None


def test_while_rules():
    nxt, rule = sem_step(_cfg(LOOP))
    assert rule == "SWhileT"
    assert nxt.cursor.entering and render_path(nxt.cursor.path) == "body"
    nxt, rule = sem_step(_cfg(While(Lit(FALSE), Skip())))
    assert rule == "SWhileF" and not nxt.cursor.entering
    assert sem_step(_cfg(While(Var("e"), Skip()))) is None


def test_leaving_a_non_root_position_advances():
    cfg = Config(Cursor(*all_locations(LOOP)[2], False), {})  # body/seqL, done
    nxt, rule = sem_step(cfg)
    assert rule == "SFalse"
    assert nxt.cursor.entering
    assert render_path(nxt.cursor.path) == "body/seqR"
    assert nxt.state == {}


def test_terminal_configuration():
    cfg = _cfg(Skip(), entering=False)
    assert is_terminal(cfg)
    assert sem_step(cfg) is None
    assert not is_terminal(_cfg(Skip()))


def test_run_trace_terminates_on_skip():
    tr = run_trace(Skip(), {}, 10)
    assert tr.status == TERMINATED
    assert [rule for _, rule in tr.steps] == ["SEmpty"]
    assert is_terminal(tr.steps[-1][0])


def test_run_trace_does_not_share_the_input_state():
    state = {}
    run_trace(Assign("x", TRUE), state, 10)
    assert state == {}


def test_run_trace_stuck_on_null_condition():
    tr = run_trace(Cond(Var("b"), Skip(), Skip()), {}, 10)
    assert tr.status == STUCK
    assert tr.steps == []
    assert "null" in tr.stuck_reason and "@top" in tr.stuck_reason


def test_run_trace_loop_hits_step_limit():
    tr = run_trace(LOOP, {}, 4)
    assert tr.status == STEP_LIMIT
    configs = [tr.start] + [cfg for cfg, _rule in tr.steps]
    rows = [(render_path(cfg.cursor.path), cfg.cursor.entering, cfg.state)
            for cfg in configs]
    assert rows == [
        ("@top", True, {}),
        ("body", True, {}),
        ("body/seqL", True, {}),
        ("body/seqL", False, {"x": TRUE}),
        ("body/seqR", True, {"x": TRUE}),
    ]
    assert [rule for _, rule in tr.steps] == \
        ["SWhileT", "SSeq", "SAssign", "SFalse"]


def applicable_rules(cfg):
    """Independent transcription of the eight rule premises."""
    focus = cfg.cursor.focus
    path = cfg.cursor.path
    entering = cfg.cursor.entering
    s = cfg.state
    rules = []
    if entering and isinstance(focus, Skip):
        rules.append("SEmpty")
    if entering and isinstance(focus, Assign):
        rules.append("SAssign")
    if entering and isinstance(focus, Seq):
        rules.append("SSeq")
    if entering and isinstance(focus, Cond) and eval_expr(focus.test, s) == TRUE:
        rules.append("SCondT")
    if entering and isinstance(focus, Cond) and eval_expr(focus.test, s) == FALSE:
        rules.append("SCondF")
    if entering and isinstance(focus, While) and eval_expr(focus.test, s) == TRUE:
        rules.append("SWhileT")
    if entering and isinstance(focus, While) and eval_expr(focus.test, s) == FALSE:
        rules.append("SWhileF")
    if not entering and not isinstance(path, Top):
        rules.append("SFalse")
    return rules


def test_at_most_one_rule_applies_and_sem_step_picks_it():
    rng = random.Random(9)
    for _ in range(150):
        c = random_program(rng)
        state = random_state(rng)
        cursors = [Cursor(focus, path, entering) for focus, path in
                   all_locations(c) for entering in (True, False)]
        for cur in cursors:
            cfg = Config(cur, dict(state))
            rules = applicable_rules(cfg)
            assert len(rules) <= 1
            res = sem_step(cfg)
            if res is None:
                assert rules == []
            else:
                assert rules == [res[1]]


def test_steps_preserve_the_tree_and_match_the_successor_map():
    rng = random.Random(10)
    for _ in range(100):
        c = random_program(rng)
        tr = run_trace(c, random_state(rng), 200)
        locs = set(all_locations(c))
        prev = tr.start
        for cfg, _rule in tr.steps:
            # the walked tree never changes and the cursor stays inside it
            loc = (cfg.cursor.focus, cfg.cursor.path)
            assert reconstruct_loc(loc) == c
            assert loc in locs
            # the move is one of the static successors, the state change
            # is the effect of the source point's action
            assert cfg.cursor in step_image(prev.cursor)
            assert action_effect(action_of(prev.cursor), prev.state) == cfg.state
            prev = cfg
