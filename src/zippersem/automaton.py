"""Finite automata labeled by program points.

A program compiles to an automaton whose nodes are all cursors of its
syntax tree and whose edges follow the static successor map: one edge per
possible small step.  Only the step of an assignment carries an action;
every other edge is silent.  The automaton over-approximates execution,
since both branches of a conditional and both outcomes of a loop header
are present regardless of state.

Compilation reads every edge off the location table of all_locations.
step_image derives the same edges one cursor at a time through advance,
so the closure check compares two independent constructions.
"""

from typing import Any, NamedTuple

from .ast import Assign, Cond, Seq, Skip, Stmt, While, value_literal
from .semantics import run_trace
from .zipper import (CondElse, CondThen, Cursor, SeqLeft, Top, WhileBody,
                     advance, all_locations)


# an edge's action: the entered Assign node, or SILENT for any other step
SILENT = None


def render_action(a) -> str:
    if a is SILENT:
        return "τ"
    if isinstance(a, Assign):
        return f"{a.name}:={value_literal(a.value)}"
    raise TypeError(f"not an action: {a!r}")


class Automaton(NamedTuple):
    """Node and edge tuples plus an initial node.

    Node type is arbitrary (cursors for compiled programs, ints for loaded
    ones, node sets after closure).  An edge is a plain (source, action,
    dest) tuple, the cheapest object to build in bulk; its action is an
    Assign node or SILENT.  Tuples may hold duplicates; set semantics
    apply wherever membership is meant.
    """
    nodes: tuple
    edges: tuple
    init: Any


def action_effect(a, s: dict) -> dict:
    """State after the action: silent leaves it alone, assignment binds."""
    if a is SILENT:
        return s
    if isinstance(a, Assign):
        return {**s, a.name: a.value}
    raise TypeError(f"not an action: {a!r}")


def step_image(cur: Cursor) -> list[Cursor]:
    """Static successors of a program point.

    Mirrors the small-step rules with state abstracted away: an entering
    conditional lists both branches, an entering loop header lists its body
    and its own leaving point.  A leaving point at the root has no
    successor; elsewhere it advances through the context.
    """
    focus = cur.focus
    path = cur.path
    if cur.entering:
        if isinstance(focus, (Skip, Assign)):
            return [Cursor(focus, path, False)]
        if isinstance(focus, Seq):
            return [Cursor(focus.first, SeqLeft(path, focus.second), True)]
        if isinstance(focus, Cond):
            return [
                Cursor(focus.then_branch,
                       CondThen(focus.test, path, focus.else_branch), True),
                Cursor(focus.else_branch,
                       CondElse(focus.test, focus.then_branch, path), True),
            ]
        if isinstance(focus, While):
            return [
                Cursor(focus.body, WhileBody(focus.test, path), True),
                Cursor(focus, path, False),
            ]
        raise TypeError(f"not a statement: {focus!r}")
    if isinstance(path, Top):
        return []
    return [advance(focus, path)]


def action_of(cur: Cursor) -> Assign | None:
    """Entering an assignment is the only observable step; its action is
    the Assign node itself."""
    if cur.entering and isinstance(cur.focus, Assign):
        return cur.focus
    return SILENT


def program_automaton(c: Stmt) -> Automaton:
    """Compile a statement to its program-point automaton.

    Nodes are both cursors of every location in pre-order, entering
    first, so the node count is twice the subterm count: node 2i enters
    location i and node 2i + 1 leaves it.  The initial node enters the
    root.  Edges are step_image's, in node order, each read off the
    location table: a location's parent is the index of its path's `up`,
    and the locations of its subtree run from its own index to its end.
    """
    locs = all_locations(c)
    nodes = tuple(Cursor(focus, path, entering) for focus, path in locs
                  for entering in (True, False))
    enters, leaves = nodes[::2], nodes[1::2]
    index = {path: i for i, (_, path) in enumerate(locs)}
    end = list(range(1, len(locs) + 1))
    for i in range(len(locs) - 1, 0, -1):
        up = index[locs[i][1].up]
        if end[up] < end[i]:
            end[up] = end[i]
    edges = []
    add = edges.append
    for i, (focus, path) in enumerate(locs):
        enter, leave = enters[i], leaves[i]
        if isinstance(focus, Seq):
            add((enter, SILENT, enters[i + 1]))
        elif isinstance(focus, Cond):
            add((enter, SILENT, enters[i + 1]))
            add((enter, SILENT, enters[end[i + 1]]))
        elif isinstance(focus, While):
            add((enter, SILENT, enters[i + 1]))
            add((enter, SILENT, leave))
        elif isinstance(focus, Assign):
            add((enter, focus, leave))
        elif isinstance(focus, Skip):
            add((enter, SILENT, leave))
        else:
            raise TypeError(f"not a statement: {focus!r}")
        if isinstance(path, SeqLeft):
            add((leave, SILENT, enters[end[i]]))
        elif isinstance(path, WhileBody):
            add((leave, SILENT, enters[index[path.up]]))
        elif i:
            add((leave, SILENT, leaves[index[path.up]]))
    return Automaton(nodes, tuple(edges), nodes[0])


def is_regular(aut: Automaton) -> bool:
    """Initial node and every edge endpoint belong to the node list."""
    nodes = set(aut.nodes)
    return aut.init in nodes and all(
        s in nodes and d in nodes for s, _, d in aut.edges)


def step_image_closed(aut: Automaton) -> tuple[bool, bool]:
    """(nodes closed, edges closed), from one pass over each node's edges:
    every static successor is a node, and every edge is in the edge list."""
    nodes, edges = set(aut.nodes), set(aut.edges)
    nodes_ok = edges_ok = True
    for n in aut.nodes:
        a = action_of(n)
        for d in step_image(n):
            nodes_ok = nodes_ok and d in nodes
            edges_ok = edges_ok and (n, a, d) in edges
    return nodes_ok, edges_ok


class SimulationReport(NamedTuple):
    """Outcome of replaying a semantic trace inside the automaton."""
    status: str                 # trace status: terminated, stuck, step-limit
    steps_checked: int
    violation: tuple | None = None  # (step index, Config, Config)

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_simulation(c: Stmt, state: dict, max_steps: int = 10000) -> SimulationReport:
    """Check that every semantic step is matched by an automaton edge.

    For each trace step from (cur, s) to (cur', s') there must be an edge
    cur -> cur' whose action maps s to s'.  Stops at the first unmatched
    step; stuck and bounded traces are fine, their prefix is checked.
    """
    aut = program_automaton(c)
    by_source = {}
    for e in aut.edges:
        by_source.setdefault(e[0], []).append(e)
    trace = run_trace(c, state, max_steps)
    cfg = trace.start
    for i, (nxt, _rule) in enumerate(trace.steps):
        for _, a, d in by_source.get(cfg.cursor, []):
            if d == nxt.cursor and action_effect(a, cfg.state) == nxt.state:
                break
        else:
            return SimulationReport(trace.status, i, (i, cfg, nxt))
        cfg = nxt
    return SimulationReport(trace.status, len(trace.steps))
