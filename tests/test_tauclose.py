"""Closure sets, closed automata and the membership simulation witness."""

import random

import pytest

from oracles import (closed_shape, closure_bfs, closure_step, node_key,
                     node_set, tau_closure, tau_simulation_scan)
from randgen import random_automaton, random_program, random_silent_automaton
from zippersem import tauclose
from zippersem.ast import TRUE, Assign, parse_program
from zippersem.automaton import (SILENT, Automaton, is_regular,
                                 program_automaton)
from zippersem.formats import render_node
from zippersem.tauclose import (NodeSet, TauSimReport, action_key,
                                check_tau_simulation, close_automaton,
                                node_order)

ALPHA = Assign("a", TRUE)
BETA = Assign("b", TRUE)
GAMMA = Assign("c", TRUE)
FOREIGN_INIT = ("^the closed automaton has no node id for an initial node "
                "outside the node list$")


def _closable(m):
    """m itself, or, when its initial node is outside the node list, which
    close_automaton refuses, m started from its first node instead: closed
    nodes and edges do not depend on the initial node."""
    if m.init in m.nodes:
        return m
    with pytest.raises(ValueError, match=FOREIGN_INIT):
        close_automaton(m)
    return m._replace(init=m.nodes[0])


def test_node_set_canonicalizes():
    assert node_set([3, 1, 2, 1]).members == (1, 2, 3)
    # not interned: two builds are two objects with equal members
    first, second = node_set([2, 1]), node_set([1, 2])
    assert first.members == second.members == (1, 2)
    assert first is not second and first != second
    ns = node_set([5, 4])
    assert 4 in ns and 6 not in ns
    assert list(ns) == [4, 5] and len(ns) == 2


def test_closure_step_examples(silent_fork):
    m = silent_fork
    assert closure_step(m, 1, frozenset()) == {1}
    assert closure_step(m, 1, frozenset({1})) == {1, 2, 3}
    assert closure_step(m, 1, frozenset({1, 2, 3})) == {1, 2, 3}
    assert closure_step(m, 4, frozenset({4})) == {4}


def test_closure_step_keeps_a_foreign_seed(silent_fork):
    assert closure_step(silent_fork, 99, frozenset()) == {99}


def test_tau_closure_fixpoints(silent_fork):
    m = silent_fork
    assert tau_closure(m, 1).members == (1, 2, 3)
    for n in (2, 3, 4, 5):
        assert tau_closure(m, n).members == (n,)


def test_closure_ignores_silent_edges_to_foreign_nodes():
    m = Automaton((1,), ((1, SILENT, 2),), 1)
    assert tau_closure(m, 1).members == (1,)
    assert closure_bfs(m, 1).members == (1,)


def test_closed_nodes_and_init(silent_fork):
    assert [ns.members for ns in close_automaton(silent_fork).nodes] == [
        (1, 2, 3), (2,), (3,), (4,), (5,)]
    assert close_automaton(silent_fork).init.members == (1, 2, 3)


def test_closed_init_outside_node_list():
    m = Automaton((1,), (), 0)
    with pytest.raises(ValueError, match=FOREIGN_INIT):
        close_automaton(m)
    # refused also when silent edges leave it or reach it, where the
    # oracles still close it as the fixpoint definition says
    rng = random.Random(20)
    for _ in range(200):
        base = random_automaton(rng)
        extra = tuple((src, SILENT, dst) for src, dst in
                      ((0, rng.choice(base.nodes)), (0, rng.choice(base.nodes)),
                       (rng.choice(base.nodes), 0), (0, 0), (0, 99)))
        m = Automaton(base.nodes, base.edges + extra[:rng.randint(0, 5)], 0)
        with pytest.raises(ValueError, match=FOREIGN_INIT):
            close_automaton(m)
        assert tau_closure(m, 0).members == closure_bfs(m, 0).members


def test_closed_nodes_order_preserved_with_equal_closures():
    m = Automaton((1, 2), ((1, SILENT, 2), (2, SILENT, 1)), 1)
    ns = close_automaton(m).nodes
    assert [s.members for s in ns] == [(1, 2), (1, 2)]
    assert ns[0] == ns[1]


def test_closes_of_automata_with_ids_equal_across_types_stay_apart():
    # 1 == True, and an interned node set keyed on its members merged
    # the second close's init into the first's
    ints = close_automaton(Automaton((1, 2), ((1, SILENT, 2),), 1))
    bools = close_automaton(Automaton((True, 2), ((True, SILENT, 2),), True))
    assert bools.init is not ints.init
    assert render_node(ints.init) == "{1, 2}"
    assert render_node(bools.init) == "{True, 2}"
    assert bools.init.members[0] is True


def test_closed_edges_golden(silent_fork):
    got = [(s.members, a, d.members)
           for s, a, d in close_automaton(silent_fork).edges]
    assert got == [
        ((1, 2, 3), ALPHA, (4,)),
        ((1, 2, 3), BETA, (5,)),
        ((2,), ALPHA, (4,)),
        ((3,), BETA, (5,)),
        ((4,), BETA, (5,)),
        ((5,), GAMMA, (3,)),
    ]


def test_closed_automaton_is_silent_free(silent_fork):
    closed = close_automaton(silent_fork)
    assert all(a != SILENT for _, a, _ in closed.edges)
    assert closed.init.members == (1, 2, 3)
    assert is_regular(closed)


def test_closed_edges_skip_foreign_endpoints():
    # only the edge with both endpoints in the node list can be witnessed
    m = Automaton((1, 2),
                  ((1, ALPHA, 3), (3, ALPHA, 2), (1, ALPHA, 2)),
                  1)
    got = [(s.members, a, d.members) for s, a, d in close_automaton(m).edges]
    assert got == [((1,), ALPHA, (2,))]


def test_close_skip_program():
    aut = program_automaton(parse_program("skip"))
    closed = close_automaton(aut)
    assert [len(ns) for ns in closed.nodes] == [2, 1]
    assert closed.edges == ()
    assert len(closed.init) == 2


def test_closed_cursor_members_keep_canonical_order():
    aut = program_automaton(parse_program("skip; x := true"))
    for ns in close_automaton(aut).nodes:
        keys = [node_key(m) for m in ns.members]
        assert keys == sorted(keys)


def test_three_way_agreement_on_random_automata():
    rng = random.Random(21)
    automata = [random_automaton(rng) for _ in range(150)]
    shaped = random.Random(28)
    automata += [random_silent_automaton(shaped) for _ in range(300)]
    for m in automata:
        m = _closable(m)
        closed = close_automaton(m)
        for n, via_bulk in zip(m.nodes, closed.nodes):
            assert tau_closure(m, n).members == \
                closure_bfs(m, n).members == via_bulk.members
        assert closed.init.members == tau_closure(m, m.init).members == \
            closure_bfs(m, m.init).members


def test_closure_shortcuts_agree_with_the_oracles():
    # each vertex's silent successors, and its closure:
    succ = [
        [],         # 0: a sink, its own closure without the search
        [3],        # 1: one edge, into the middle of (0, 3)
        [2],        # 2: a silent self-loop and nothing else
        [0],        # 3: one edge to a closure that starts below it
        [5],        # 4: one edge to a closure that starts above it
        [],         # 5: a sink
        [6, 0],     # 6: a self-loop and one more edge, the general case
        [8],        # 7: a 2-cycle with 8
        [7],        # 8
        [7],        # 9: one edge into the 2-cycle's closure
    ]
    expected = [(0,), (0, 1, 3), (2,), (0, 3), (4, 5), (5,), (0, 6), (7, 8),
                (7, 8), (7, 8, 9)]
    comp, closures, parts = tauclose._closures(succ)
    assert [closures[comp[v]] for v in range(len(succ))] == expected
    # the single-edge vertices take their successor's closure as built
    assert [parts[comp[v]] for v in (0, 1, 2, 3, 4, 9)] == [
        (), (comp[3],), (), (comp[0],), (comp[5],), (comp[7],)]
    # components complete after every component they reach
    assert all(d < c for c, took in enumerate(parts) for d in took)
    m = Automaton(tuple(range(len(succ))),
                  tuple((v, SILENT, w) for v, ws in enumerate(succ) for w in ws),
                  0)
    for v, closed in zip(m.nodes, close_automaton(m).nodes):
        assert closed.members == tau_closure(m, v).members == \
            closure_bfs(m, v).members == expected[v]


def test_closures_take_every_successor_even_one_inside_another():
    # a successor component whose closure is inside another's, from a
    # single vertex and from a 2-cycle: each component takes all of its
    # successor components, and the closed edges are those of the
    # candidate product
    succ = [
        [1, 2],     # 0: v, to a and to b, whose closure is inside a's
        [2],        # 1: a, one edge to b
        [],         # 2: b, a sink
        [4, 0],     # 3: a 2-cycle with 4, to v
        [3, 1],     # 4: and to a, whose closure is inside v's
    ]
    comp, closures, parts = tauclose._closures(succ)
    for v, ws in ((0, (1, 2)), (3, (0, 1))):
        assert set(parts[comp[v]]) == {comp[w] for w in ws}
        assert all(d < comp[v] for d in parts[comp[v]])
    silent = tuple((v, SILENT, w) for v, ws in enumerate(succ) for w in ws)
    m = Automaton(tuple(range(len(succ))), silent + (
        (2, ALPHA, 3), (1, BETA, 2), (0, GAMMA, 0), (4, ALPHA, 2)), 0)
    closed = close_automaton(m)
    for v, ns in zip(m.nodes, closed.nodes):
        assert ns.members == closures[comp[v]] == tau_closure(m, v).members \
            == closure_bfs(m, v).members
    assert set(closed_shape(closed)[1]) == _candidate_product_filter(m)


def test_closures_of_sparse_silent_graphs_agree_with_the_oracles():
    # mostly sinks, self-loops and single silent edges, in both directions
    # of the rank order, so that every shortcut meets every other
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randint(1, 12)
        edges = []
        for v in range(n):
            for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
                edges.append((v, SILENT, rng.choice([v, rng.randrange(n)])))
            if rng.random() < 0.3:
                edges.append((v, ALPHA, rng.randrange(n)))
        rng.shuffle(edges)
        m = Automaton(tuple(range(n)), tuple(edges), 0)
        closed = close_automaton(m)
        for v, ns in zip(m.nodes, closed.nodes):
            assert ns.members == tau_closure(m, v).members == \
                closure_bfs(m, v).members
        assert check_tau_simulation(m).ok


def test_closure_step_is_monotone_and_extensive():
    rng = random.Random(22)
    for _ in range(200):
        m = random_automaton(rng)
        pool = list(m.nodes)
        y = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        x = frozenset(rng.sample(sorted(y), rng.randint(0, len(y)))) if y \
            else frozenset()
        seed = rng.choice(pool)
        sx = closure_step(m, seed, x)
        sy = closure_step(m, seed, y)
        assert sx <= sy
        assert x <= sx and seed in sx


def test_every_node_is_in_its_own_closure():
    rng = random.Random(23)
    for _ in range(50):
        m = random_automaton(rng)
        for n, ns in zip(m.nodes, close_automaton(m).nodes):
            assert n in ns


def test_closed_edges_match_the_candidate_product_filter():
    # brute-force oracle: enumerate every (closure, action, closure)
    # candidate and keep it iff a witness edge passes the filter
    rng = random.Random(24)
    automata = [random_automaton(rng, max_nodes=6, max_edges=10)
                for _ in range(60)]
    shaped = random.Random(29)
    automata += [random_silent_automaton(shaped, max_nodes=8)
                 for _ in range(60)]
    for m in automata:
        got = set(closed_shape(close_automaton(_closable(m)))[1])
        assert got == _candidate_product_filter(m)


def _candidate_product_filter(m):
    """Every (closure, action, closure) candidate that a witness edge
    passes the definition's filter for."""
    closures = {n: tau_closure(m, n).members for n in set(m.nodes)}
    dest_closure = {d: tau_closure(m, d).members for _, _, d in m.edges}
    actions = {a for _, a, _ in m.edges if a != SILENT}
    kept = set()
    for n1 in set(m.nodes):
        src = closures[n1]
        for a in actions:
            for n2 in set(m.nodes):
                dst = closures[n2]
                if any(ea == a and s in src and dest_closure[d] == dst
                       for s, ea, d in m.edges):
                    kept.add((src, a, dst))
    return kept


def test_close_keeps_nothing_on_its_input():
    rng = random.Random(35)
    automata = [random_automaton(rng) for _ in range(30)]
    automata += [program_automaton(random_program(rng)) for _ in range(30)]
    for m in automata:
        assert not hasattr(m, "__dict__")
        before = Automaton(*m)
        first = close_automaton(m)
        assert m == before
        assert closed_shape(close_automaton(m)) == closed_shape(first)


def test_tau_simulation_on_the_fixture(silent_fork):
    report = check_tau_simulation(silent_fork)
    assert report.ok
    assert report.checked_pairs == 7
    assert report.violation is None


def test_tau_simulation_fails_on_a_dangling_silent_edge():
    # the closure cannot absorb a silent edge that leaves the node list,
    # so membership is not a simulation witness there
    m = Automaton((1,), ((1, SILENT, 2),), 1)
    report = check_tau_simulation(m)
    assert not report.ok
    s1, s2, edge, reason = report.violation
    assert s1 == 1 and 1 in s2 and edge[2] == 2
    assert reason == "unmatched edge"


def test_tau_simulation_on_random_regular_automata():
    rng = random.Random(25)
    for _ in range(100):
        m = random_automaton(rng)
        assert is_regular(m)
        assert check_tau_simulation(m).ok


def test_tau_simulation_on_compiled_programs():
    rng = random.Random(26)
    for _ in range(60):
        aut = program_automaton(random_program(rng))
        assert check_tau_simulation(aut).ok


def _with_string_ids(m):
    # "n10" sorts before "n2", so string ids rank apart from their ints
    name = {n: f"n{n}" for n in m.nodes}
    return Automaton(tuple(name[n] for n in m.nodes),
                     tuple((name[s], a, name[d]) for s, a, d in m.edges),
                     name[m.init])


def test_ranked_pass_keeps_the_canonical_orders():
    # members in node_set order, edges sorted by member node_keys
    def members_key(ns):
        return tuple(node_key(n) for n in ns.members)

    rng = random.Random(27)
    automata = []
    for _ in range(100):
        m = random_automaton(rng, max_nodes=14)
        automata += [m, _with_string_ids(m)]
    automata += [program_automaton(random_program(rng)) for _ in range(60)]
    shaped = random.Random(30)
    automata += [random_silent_automaton(shaped) for _ in range(100)]
    for m in automata:
        m = _closable(m)
        closed = close_automaton(m)
        assert len(set(closed.edges)) == len(closed.edges)
        for ns in closed.nodes:
            assert ns.members == node_set(ns.members).members
        assert list(closed.edges) == sorted(
            closed.edges, key=lambda e: (members_key(e[0]), action_key(e[1]),
                                         members_key(e[2])))
        assert closed.init.members == tau_closure(m, m.init).members


def test_node_order_is_the_rendered_path_order():
    rng = random.Random(31)
    for _ in range(500):
        aut = program_automaton(random_program(rng))
        nodes = list(dict.fromkeys(aut.nodes))
        rng.shuffle(nodes)
        assert sorted(nodes, key=node_order(nodes)) == sorted(nodes, key=node_key)


def test_node_order_ties_cursors_of_two_programs_in_input_order():
    first = program_automaton(parse_program(
        "while (a) { x := true; if (b) { skip } else { y := null } }"))
    second = program_automaton(parse_program(
        "if (c) { while (a) { skip } } else { x := false; skip }"))
    nodes = list(first.nodes + second.nodes)
    ranked = sorted(nodes, key=node_order(nodes))
    assert ranked == sorted(nodes, key=node_key)
    # equal rendered paths: the first program's cursor comes first
    assert ranked[0] is first.nodes[1] and ranked[1] is second.nodes[1]
    mixed = Automaton(tuple(nodes), first.edges + second.edges, first.init)
    for n, ns in zip(mixed.nodes, close_automaton(mixed).nodes):
        assert set(ns) == set(tau_closure(mixed, n))


def _tampered(m, rng):
    """The closure of m changed in one place."""
    mc = close_automaton(_closable(m))
    nodes, edges = list(mc.nodes), list(mc.edges)
    how = rng.choice(["drop edge", "other closure", "drop member", "add edge"])
    if how == "drop edge" and edges:
        del edges[rng.randrange(len(edges))]
    elif how == "other closure":
        nodes[rng.randrange(len(nodes))] = rng.choice(nodes)
    elif how == "drop member":
        # everywhere, so that edges lead to the smaller set
        big = rng.choice(nodes)
        small = NodeSet(big.members[1:])
        nodes = [small if n is big else n for n in nodes]
        edges = [(small if s is big else s, a, small if d is big else d)
                 for s, a, d in edges]
    else:
        edges.append((rng.choice(nodes), ALPHA, rng.choice(nodes)))
    return Automaton(tuple(nodes), tuple(edges), mc.init)


def test_witness_check_reports_as_the_scan_does(monkeypatch):
    rng = random.Random(32)
    cases = []
    for _ in range(150):
        m = random_automaton(rng)
        cases.append((m, close_automaton(m)))
        s = random_silent_automaton(rng)
        cases.append((s, close_automaton(_closable(s))))
        t = rng.choice([m, s])
        cases.append((t, _tampered(t, rng)))
    for _ in range(50):
        aut = program_automaton(random_program(rng))
        cases.append((aut, close_automaton(aut)))
        cases.append((aut, _tampered(aut, rng)))
    # large closed nodes with several destinations under one action
    programs = []
    for d in range(1, 11):
        text = "x := true"
        for _ in range(d):
            text = f"while (a) {{ {text}; y := false }}"
        programs.append(text)
    for n in range(1, 41):
        programs.append("; ".join("skip" if i % 10 == 9 else f"x{i % 10} := true"
                                  for i in range(n)))
    for text in programs:
        aut = program_automaton(parse_program(text))
        cases.append((aut, close_automaton(aut)))
        cases.append((aut, _tampered(aut, rng)))
    failing = 0
    for m, mc in cases:
        # the check closes m itself; hand it mc, tampered or not
        monkeypatch.setattr(tauclose, "close_automaton", lambda aut, mc=mc: mc)
        report = check_tau_simulation(m)
        assert report == tau_simulation_scan(m, mc)
        failing += not report.ok
    assert failing > 100


def test_witness_check_searches_the_closed_edges_only_on_a_miss(monkeypatch):
    # a closure whose edges lead to a larger closed node that holds each
    # destination, not to the destination's own closed node: the one
    # lookup misses, and the search by action must still match
    m = Automaton((1, 2, 3, 4), ((1, ALPHA, 3), (2, SILENT, 3), (4, BETA, 3)),
                  1)
    a, b, c, d = (NodeSet((1,)), NodeSet((2, 3)), NodeSet((3,)),
                  NodeSet((4,)))
    assert closed_shape(close_automaton(m)) == closed_shape(Automaton(
        (a, b, c, d), ((a, ALPHA, c), (d, BETA, c)), a))
    mc = Automaton((a, b, c, d), ((a, ALPHA, b), (d, BETA, b)), a)
    monkeypatch.setattr(tauclose, "close_automaton", lambda aut: mc)
    report = check_tau_simulation(m)
    assert report == tau_simulation_scan(m, mc) == TauSimReport(5)
    # without the edge that matched the later miss
    fewer = mc._replace(edges=mc.edges[:1])
    monkeypatch.setattr(tauclose, "close_automaton", lambda aut: fewer)
    report = check_tau_simulation(m)
    assert report == tau_simulation_scan(m, fewer)
    assert report.violation == (4, d, (4, BETA, 3), "unmatched edge")
    # without the edge that matched the first miss
    fewer = mc._replace(edges=mc.edges[1:])
    monkeypatch.setattr(tauclose, "close_automaton", lambda aut: fewer)
    report = check_tau_simulation(m)
    assert report == tau_simulation_scan(m, fewer)
    assert report.violation == (1, a, (1, ALPHA, 3), "unmatched edge")
