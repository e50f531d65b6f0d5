"""Test-side reference routes and renamings.

The fixpoint closure (closure_step iterated by tau_closure) is the
paper's definition of a node's silent closure, and closure_bfs is an
independent breadth-first oracle.  Tests check the library's one ranked
route, tauclose.close_automaton, against both.  node_key is the rendered
sort key that tauclose.node_order reproduces with integer path ranks, and
tau_simulation_scan is the edge-scanning witness check that
tauclose.check_tau_simulation performs with its closed edges grouped by
action; both were the library's routes before and are kept as their
specifications.  node_set builds a closed node from any nodes in node_key
order; the oracle closures use it, also for a seed outside the node list,
which close_automaton refuses, and closed_shape gives a closed automaton
by its members, which closes apart share.
position_renaming is the automaton that a positional JSON export
re-imports as.  subterm_count is the recursive specification of the
number of locations of a tree, and reconstruct plugs a focus back into
its path frame by frame: the zipper law of criterion 3 is that every
(focus, path) location of a tree reconstructs to that tree.
rewrite_step and rewrite_run are the textbook structural semantics,
which rewrites the statement instead of moving a cursor through it: an
independent oracle for semantics.run_trace (criterion 10).
"""

from zippersem.ast import (FALSE, NULL, TRUE, Assign, Cond, Seq, Skip, Stmt,
                           Var, While)
from zippersem.automaton import SILENT, Automaton
from zippersem.semantics import STEP_LIMIT, STUCK, TERMINATED
from zippersem.tauclose import NodeSet, TauSimReport
from zippersem.zipper import (CondElse, CondThen, Cursor, Path, SeqLeft,
                              SeqRight, Top, WhileBody, render_path)


def subterm_count(c: Stmt) -> int:
    """Number of statement subterms, the statement itself included."""
    if isinstance(c, (Skip, Assign)):
        return 1
    if isinstance(c, Seq):
        return 1 + subterm_count(c.first) + subterm_count(c.second)
    if isinstance(c, Cond):
        return 1 + subterm_count(c.then_branch) + subterm_count(c.else_branch)
    if isinstance(c, While):
        return 1 + subterm_count(c.body)
    raise TypeError(f"not a statement: {c!r}")


def reconstruct(c: Stmt, sp: Path) -> Stmt:
    """Plug the focus back into its context, yielding the whole tree."""
    while not isinstance(sp, Top):
        if isinstance(sp, SeqLeft):
            c = Seq(c, sp.after)
        elif isinstance(sp, SeqRight):
            c = Seq(sp.before, c)
        elif isinstance(sp, CondThen):
            c = Cond(sp.test, c, sp.orelse)
        elif isinstance(sp, CondElse):
            c = Cond(sp.test, sp.then_branch, c)
        elif isinstance(sp, WhileBody):
            c = While(sp.test, c)
        else:
            raise TypeError(f"not a path: {sp!r}")
        sp = sp.up
    return c


def reconstruct_loc(loc: tuple[Stmt, Path]) -> Stmt:
    return reconstruct(*loc)


def node_key(n):
    """Canonical sort key: numbers numerically, then strings, then cursors
    by (rendered path, flag), then null."""
    if isinstance(n, Cursor):
        return (2, render_path(n.path), n.entering)
    if isinstance(n, str):
        return (1, n)
    if n is None:
        return (3,)
    return (0, n)


def node_set(it) -> NodeSet:
    """The closed node of the given nodes: distinct, in node_key order."""
    nodes = set(it)
    return NodeSet(tuple(sorted(nodes, key=node_key)))


def closed_shape(aut: Automaton) -> tuple:
    """A closed automaton by the members of its node sets: members per
    node, edges as (members, action, members) and the initial node's
    members.  Closed nodes compare by identity, so closures built apart
    compare through this."""
    return (tuple(n.members for n in aut.nodes),
            tuple((s.members, a, d.members) for s, a, d in aut.edges),
            aut.init.members)


def closure_step(aut: Automaton, seed, x) -> frozenset:
    """One expansion round: the seed, everything in x, and every automaton
    node reached from x by one silent edge.

    Monotone and extensive in x.  The seed is included even when it is not
    a node of the automaton; silently reached nodes must be.
    """
    nodes = set(aut.nodes)
    reached = {d for s, a, d in aut.edges
               if a == SILENT and s in x and d in nodes}
    return frozenset({seed} | set(x) | reached)


def tau_closure(aut: Automaton, seed) -> NodeSet:
    """Least fixpoint of closure_step, reached by iteration from the
    empty set."""
    x = frozenset()
    while True:
        y = closure_step(aut, seed, x)
        if y == x:
            return node_set(x)
        x = y


def closure_bfs(aut: Automaton, seed) -> NodeSet:
    """Independent oracle for tau_closure: plain breadth-first reach over
    silent edges, restricted to automaton nodes."""
    nodes = set(aut.nodes)
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for cur in frontier:
            for s, a, d in aut.edges:
                if (s == cur and a == SILENT
                        and d in nodes and d not in seen):
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return node_set(seen)


def position_renaming(aut: Automaton) -> Automaton:
    """Rename nodes to their positions among the distinct nodes of the
    node list."""
    ids = {}
    for n in aut.nodes:
        ids.setdefault(n, len(ids))
    edges = tuple((ids[s], a, ids[d]) for s, a, d in aut.edges)
    return Automaton(tuple(ids.values()), edges, ids[aut.init])


def tau_simulation_scan(m: Automaton, mc: Automaton) -> TauSimReport:
    """The weak simulation witness check of m against its closure mc as a
    scan: each m-edge is matched against every mc-edge of its related
    closed node."""
    if m.init not in m.nodes:
        return TauSimReport(0, (m.init, None, None,
                                "initial nodes are not related"))
    m_out = {}
    for e in m.edges:
        m_out.setdefault(e[0], []).append(e)
    mc_out = {}
    for s, a, d in mc.edges:
        mc_out.setdefault(s, []).append((a, d))
    checked = 0
    for s2 in dict.fromkeys(mc.nodes):
        for s1 in s2:
            checked += 1
            for e in m_out.get(s1, []):
                _, a, d = e
                if a is SILENT and d in s2:
                    continue
                if any(a2 == a and d in d2
                       for a2, d2 in mc_out.get(s2, [])):
                    continue
                return TauSimReport(checked, (s1, s2, e, "unmatched edge"))
    return TauSimReport(checked)


def rewrite_step(c: Stmt, s: dict):
    """One rewriting step: (next statement, next state, the Assign run or
    None), or None when no rule applies.  x := v steps to skip, skip; c
    steps to c, a conditional steps to the branch its test picks, and a
    loop unfolds to body; loop or ends in skip.  skip is final, and a test
    that is null has no rule."""
    if isinstance(c, Assign):
        return Skip(), {**s, c.name: c.value}, c
    if isinstance(c, Seq):
        if isinstance(c.first, Skip):
            return c.second, s, None
        res = rewrite_step(c.first, s)
        if res is None:
            return None
        first, s, a = res
        return Seq(first, c.second), s, a
    if isinstance(c, (Cond, While)):
        v = s.get(c.test.name, NULL) if isinstance(c.test, Var) else c.test.value
        if v == TRUE:
            return (c.then_branch if isinstance(c, Cond)
                    else Seq(c.body, c)), s, None
        if v == FALSE:
            return (c.else_branch if isinstance(c, Cond) else Skip()), s, None
    return None


def rewrite_run(c: Stmt, state: dict, max_steps: int):
    """At most max_steps rewriting steps from (c, state): (status, final
    state, the Assign nodes run in order, every statement reached)."""
    s, assigned, reached = dict(state), [], [c]
    for _ in range(max_steps):
        res = rewrite_step(c, s)
        if res is None:
            break
        c, s, a = res
        reached.append(c)
        if a is not None:
            assigned.append(a)
    status = (TERMINATED if isinstance(c, Skip) else
              STUCK if rewrite_step(c, s) is None else STEP_LIMIT)
    return status, s, assigned, reached
