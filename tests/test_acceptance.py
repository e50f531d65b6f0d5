"""Acceptance gate: one test per stated criterion.

Each test drives a heavier corpus than the unit modules and records one
pass/fail line (shown in the terminal summary); a mutant of the semantics
must fail criterion 10.  The runtime budget is asserted last, from a timer
started at import.
"""

import pathlib
import random
import time
from contextlib import contextmanager

import pytest

import acceptance_report
from oracles import (closure_bfs, closure_step, reconstruct_loc,
                     rewrite_run, subterm_count, tau_closure)
from randgen import random_automaton, random_program, random_state
from zippersem.ast import TRUE, Assign, Cond, While, parse_program
from zippersem.automaton import (SILENT, action_of, check_simulation,
                                 is_regular, program_automaton,
                                 step_image_closed)
from zippersem import automaton, semantics, zipper
from zippersem.cli import main as cli_main
from zippersem.semantics import STEP_LIMIT, STUCK, TERMINATED, run_trace
from zippersem.tauclose import check_tau_simulation, close_automaton
from zippersem.zipper import (CondElse, CondThen, Cursor, Top, WhileBody,
                              advance, all_locations)

_T0 = time.perf_counter()
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {n}: {text}"
        print(line)
        acceptance_report.lines.append(line)
        raise
    else:
        line = f"[PASS] criterion {n}: {text}"
        print(line)
        acceptance_report.lines.append(line)


@pytest.fixture(scope="module")
def program_corpus():
    rng = random.Random(2026)
    return [random_program(rng, max_depth=8) for _ in range(1000)]


@pytest.fixture(scope="module")
def automata_corpus():
    rng = random.Random(66)
    return [random_automaton(rng, max_nodes=12, max_edges=30)
            for _ in range(500)]


def test_criterion_1_golden_loop_trace(tmp_path, capsys):
    with criterion(1, "bounded loop trace matches the golden file byte for "
                      "byte in under 1s"):
        src = tmp_path / "loop.imp"
        src.write_text("while (true) { x := true; y := false }\n",
                       encoding="utf-8")
        golden = (FIXTURES / "loop_trace_golden.json").read_text(encoding="utf-8")
        t0 = time.perf_counter()
        code = cli_main(["run", str(src), "--max-steps", "4",
                         "--trace-format", "json"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 4
        assert out == golden
        assert elapsed < 1.0


def test_criterion_2_golden_closure(silent_fork):
    with criterion(2, "silent-fork closure matches the golden sets and "
                      "edges in under 1s"):
        alpha = Assign("a", TRUE)
        beta = Assign("b", TRUE)
        gamma = Assign("c", TRUE)
        t0 = time.perf_counter()
        closed = close_automaton(silent_fork)
        elapsed = time.perf_counter() - t0
        assert [ns.members for ns in closed.nodes] == [
            (1, 2, 3), (2,), (3,), (4,), (5,)]
        assert closed.init.members == (1, 2, 3)
        assert [(s.members, a, d.members) for s, a, d in closed.edges] == [
            ((1, 2, 3), alpha, (4,)),
            ((1, 2, 3), beta, (5,)),
            ((2,), alpha, (4,)),
            ((3,), beta, (5,)),
            ((4,), beta, (5,)),
            ((5,), gamma, (3,)),
        ]
        assert elapsed < 1.0


def test_criterion_3_zipper_laws(program_corpus):
    with criterion(3, "zipper laws hold on 1000 random programs "
                      "(depth at most 8)"):
        for c in program_corpus:
            locs = all_locations(c)
            assert len(locs) == subterm_count(c)
            assert len(set(locs)) == len(locs)
            locset = set(locs)
            for loc in locs:
                assert reconstruct_loc(loc) == c
                focus, path = loc
                if not isinstance(path, Top):
                    cur = advance(focus, path)
                    assert (cur.focus, cur.path) in locset


def _compiled_automata_are_closed(program_corpus):
    for c in program_corpus:
        aut = program_automaton(c)
        assert len(aut.nodes) == 2 * subterm_count(c)
        assert step_image_closed(aut) == (True, True)
        # and no compiled edge is missing from the static map
        assert sum(len(automaton.step_image(n)) for n in aut.nodes) == \
            len(aut.edges)
        assert is_regular(aut)


def test_criterion_4_compiled_automata_are_closed(program_corpus):
    with criterion(4, "compiled automata are closed and regular with twice "
                      "the subterm count as nodes (1000 programs)"):
        _compiled_automata_are_closed(program_corpus)


def _every_step_is_matched(program_corpus):
    rng = random.Random(55)
    for c in program_corpus:
        state = random_state(rng)
        report = check_simulation(c, state, max_steps=500)
        assert report.ok
        assert report.steps_checked == len(run_trace(c, state, 500).steps)


def test_criterion_5_every_step_is_matched(program_corpus):
    with criterion(5, "an automaton edge matches every semantic step on "
                      "1000 program/state pairs (500-step bound)"):
        _every_step_is_matched(program_corpus)


def test_closure_criterion_catches_an_extra_cond_edge(program_corpus,
                                                      monkeypatch):
    # a static map that also leaves every entering conditional at once:
    # compilation does not call step_image, so the check sees the edge
    original = automaton.step_image

    def extra(cur):
        image = original(cur)
        if cur.entering and isinstance(cur.focus, Cond):
            image.append(Cursor(cur.focus, cur.path, False))
        return image

    monkeypatch.setattr(automaton, "step_image", extra)
    c = parse_program("if (a) { x := true } else { skip }")
    assert step_image_closed(program_automaton(c)) == (True, False)
    with pytest.raises(AssertionError):
        _compiled_automata_are_closed(program_corpus)


def test_closure_criterion_catches_a_dropped_cond_edge(program_corpus,
                                                      monkeypatch):
    # a static map in which an entering conditional lists only its
    # then-branch: every successor it lists is a node with its edge, so
    # only the edge count sees the else-branch it drops
    original = automaton.step_image

    def dropped(cur):
        image = original(cur)
        if cur.entering and isinstance(cur.focus, Cond):
            del image[1:]
        return image

    monkeypatch.setattr(automaton, "step_image", dropped)
    c = parse_program("if (a) { x := true } else { skip }")
    assert step_image_closed(program_automaton(c)) == (True, True)
    with pytest.raises(AssertionError):
        _compiled_automata_are_closed(program_corpus)


def test_simulation_criterion_catches_a_body_leaving_its_loop(program_corpus,
                                                              monkeypatch):
    # an advance in which a finished loop body leaves its loop, bound
    # wherever the library calls advance: compilation does not, so the
    # semantics' step has no edge
    original = zipper.advance

    def leaves(c, sp):
        if isinstance(sp, WhileBody):
            return Cursor(While(sp.test, c), sp.up, False)
        return original(c, sp)

    monkeypatch.setattr(semantics, "advance", leaves)
    monkeypatch.setattr(automaton, "advance", leaves)
    c = parse_program("if (a) { x := true } else { y := false }; "
                      "while (b) { z := null }")
    assert not check_simulation(c, {"a": TRUE, "b": TRUE}).ok
    with pytest.raises(AssertionError):
        _every_step_is_matched(program_corpus)


def test_criterion_6_closure_routes_agree(automata_corpus):
    with criterion(6, "fixpoint, breadth-first and bulk closures agree on "
                      "500 random automata; one-step closure is monotone "
                      "(1000 pairs)"):
        for m in automata_corpus:
            for n, via_bulk in zip(m.nodes, close_automaton(m).nodes):
                assert tau_closure(m, n).members == \
                    closure_bfs(m, n).members == via_bulk.members
        rng = random.Random(67)
        checked = 0
        while checked < 1000:
            m = random_automaton(rng, max_nodes=12, max_edges=30)
            pool = list(m.nodes)
            for _ in range(5):
                y = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                x = frozenset(rng.sample(sorted(y), rng.randint(0, len(y)))) \
                    if y else frozenset()
                seed = rng.choice(pool)
                sx = closure_step(m, seed, x)
                sy = closure_step(m, seed, y)
                assert sx <= sy
                assert x <= sx and seed in sx
                checked += 1


def test_criterion_7_membership_witnesses_the_simulation(automata_corpus,
                                                         program_corpus):
    with criterion(7, "membership witness verified against the closure of "
                      "500 random automata and 1000 compiled programs"):
        for m in automata_corpus:
            assert check_tau_simulation(m).ok
        for c in program_corpus:
            aut = program_automaton(c)
            assert check_tau_simulation(aut).ok


def test_criterion_8_observable_traces_survive_closure():
    with criterion(8, "non-silent action sequences label paths in the "
                      "closed automaton (300 stuck-free bounded runs)"):
        rng = random.Random(88)
        done = 0
        while done < 300:
            c = random_program(rng, null_conditions=False)
            state = random_state(rng, complete=True)
            trace = run_trace(c, state, 200)
            aut = program_automaton(c)
            closed = close_automaton(aut)
            closure_of = dict(zip(aut.nodes, closed.nodes))
            out_edges = {}
            for s, a, d in closed.edges:
                out_edges.setdefault(s, []).append((a, d))
            current = closed.init
            prev = trace.start
            for cfg, _rule in trace.steps:
                a = action_of(prev.cursor)
                if a != SILENT:
                    target = closure_of[cfg.cursor]
                    assert any(ea == a and d == target
                               for ea, d in out_edges.get(current, []))
                    current = target
                prev = cfg
            # a null assigned earlier can still stall a condition; such
            # prefixes are checked above but only stuck-free runs count
            if trace.status != STUCK:
                assert trace.status in (TERMINATED, STEP_LIMIT)
                done += 1


def _rewriting_agrees(programs):
    """Run each program for up to 500 steps under run_trace and under the
    rewriting oracle, from a state that binds every variable, and assert that
    they agree.  Both count steps, but differently, so a run that either
    cuts at the step limit is compared on the shorter assignment prefix;
    other runs must agree on status, final state and assignments.  Returns
    (distinct statements the rewriting runs reached, those that are not
    subterms of their program, steps without an assignment under
    rewriting, the same under run_trace)."""
    rng = random.Random(1010)
    reached = foreign = quiet_rewriting = quiet_zipper = 0
    for c in programs:
        state = random_state(rng, complete=True)
        trace = run_trace(c, state, 500)
        zipper = [cfg.cursor.focus for cfg, rule in trace.steps
                  if rule == "SAssign"]
        status, final, assigned, terms = rewrite_run(c, state, 500)
        if STEP_LIMIT in (trace.status, status):
            k = min(len(zipper), len(assigned))
            assert zipper[:k] == assigned[:k]
        else:
            assert trace.status == status
            assert (trace.steps[-1][0].state if trace.steps else state) == final
            assert zipper == assigned
        distinct = set(terms)
        reached += len(distinct)
        foreign += len(distinct - {focus for focus, _ in all_locations(c)})
        quiet_rewriting += len(terms) - 1 - len(assigned)
        quiet_zipper += len(trace.steps) - len(zipper)
    return reached, foreign, quiet_rewriting, quiet_zipper


def test_criterion_10_rewriting_semantics_agrees(program_corpus):
    with criterion(10, "the rewriting semantics agrees with run_trace on "
                       "status, final state and assignments (1000 programs, "
                       "500-step bound)"):
        reached, foreign, quiet_rewriting, quiet_zipper = \
            _rewriting_agrees(program_corpus)
        # unfolded loops and the skips left by assignments: configurations
        # that no program point of the automaton names
        assert foreign > 0
    note = (f"  {foreign} of {reached} statements reached by rewriting "
            f"({foreign / reached:.0%}) are not subterms of their program; "
            f"steps without an assignment: {quiet_rewriting} rewriting, "
            f"{quiet_zipper} run_trace")
    print(note)
    acceptance_report.lines.append(note)


def test_rewriting_criterion_catches_swapped_branches(program_corpus,
                                                      monkeypatch):
    # a wrong choice between two edges the automaton both has, which no
    # simulation check can see: the test of SCondT picks SCondF's branch
    # and the other way round
    original = semantics.sem_step

    def swapped(cfg):
        res = original(cfg)
        if res is None or res[1] not in ("SCondT", "SCondF"):
            return res
        cur, c = cfg.cursor, cfg.cursor.focus
        if res[1] == "SCondT":
            nxt = Cursor(c.else_branch,
                         CondElse(c.test, c.then_branch, cur.path), True)
            return semantics.Config(nxt, cfg.state), "SCondF"
        nxt = Cursor(c.then_branch,
                     CondThen(c.test, cur.path, c.else_branch), True)
        return semantics.Config(nxt, cfg.state), "SCondT"

    monkeypatch.setattr(semantics, "sem_step", swapped)
    with pytest.raises(AssertionError):
        _rewriting_agrees(program_corpus)


def test_criterion_9_runtime_budget():
    elapsed = time.perf_counter() - _T0
    with criterion(9, f"acceptance suite wall time {elapsed:.1f}s, "
                      f"budget 300s"):
        assert elapsed < 300.0
