"""Test-side reference routes and renamings.

The fixpoint closure (closure_step iterated by tau_closure) is the
paper's definition of a node's silent closure, and closure_bfs is an
independent breadth-first oracle.  Tests check the library's one ranked
route, tauclose.close_automaton, against both.  node_key is the rendered
sort key that tauclose.node_order reproduces with integer path ranks, and
tau_simulation_scan is the edge-scanning witness check that
tauclose.check_tau_simulation answers with set lookups; both were the
library's routes before and are kept as their specifications.  node_set
builds a closed node from any nodes in node_key order; the oracle
closures use it, also for a seed outside the node list, which
close_automaton refuses.
position_renaming is the automaton that a positional JSON export
re-imports as.  subterm_count is the recursive specification of the
number of locations of a tree, and reconstruct plugs a focus back into
its path frame by frame: the zipper law of criterion 3 is that every
(focus, path) location of a tree reconstructs to that tree.
"""

from zippersem.ast import Assign, Cond, Seq, Skip, Stmt, While
from zippersem.automaton import SILENT, Automaton, Edge
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


def closure_step(aut: Automaton, seed, x) -> frozenset:
    """One expansion round: the seed, everything in x, and every automaton
    node reached from x by one silent edge.

    Monotone and extensive in x.  The seed is included even when it is not
    a node of the automaton; silently reached nodes must be.
    """
    nodes = set(aut.nodes)
    reached = {e.dest for e in aut.edges
               if e.action == SILENT and e.source in x and e.dest in nodes}
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
            for e in aut.edges:
                if (e.source == cur and e.action == SILENT
                        and e.dest in nodes and e.dest not in seen):
                    seen.add(e.dest)
                    nxt.append(e.dest)
        frontier = nxt
    return node_set(seen)


def position_renaming(aut: Automaton) -> Automaton:
    """Rename nodes to their positions among the distinct nodes of the
    node list."""
    ids = {}
    for n in aut.nodes:
        ids.setdefault(n, len(ids))
    edges = tuple(Edge(ids[e.source], e.action, ids[e.dest]) for e in aut.edges)
    return Automaton(tuple(ids.values()), edges, ids[aut.init])


def tau_simulation_scan(m: Automaton, mc: Automaton) -> TauSimReport:
    """The weak simulation witness check of m against its closure mc as a
    scan: each m-edge is matched against every mc-edge of its related
    closed node."""
    if m.init not in m.nodes:
        return TauSimReport(0, False, (m.init, None, None,
                                       "initial nodes are not related"))
    m_out = {}
    for e in m.edges:
        m_out.setdefault(e.source, []).append(e)
    mc_out = {}
    for e in mc.edges:
        mc_out.setdefault(e.source, []).append(e)
    checked = 0
    for s2 in dict.fromkeys(mc.nodes):
        for s1 in s2:
            checked += 1
            for e in m_out.get(s1, []):
                if e.action is SILENT and e.dest in s2:
                    continue
                if any(e2.action == e.action and e.dest in e2.dest
                       for e2 in mc_out.get(s2, [])):
                    continue
                return TauSimReport(checked, False, (s1, s2, e, "unmatched edge"))
    return TauSimReport(checked, True)
