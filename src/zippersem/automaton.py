"""Finite automata labeled by program points.

A program compiles to an automaton whose nodes are all cursors of its
syntax tree and whose edges follow the static successor map: one edge per
possible small step.  Only the step of an assignment carries an action;
every other edge is silent.  The automaton over-approximates execution,
since both branches of a conditional and both outcomes of a loop header
are present regardless of state.
"""

from typing import Any, NamedTuple

from .ast import Assign, Cond, Seq, Skip, Stmt, While, value_literal
from .semantics import run_trace
from .zipper import (TOP, CondElse, CondThen, Cursor, Location, SeqLeft, Top,
                     WhileBody, advance, all_locations, cursors_of)


# an edge's action: the entered Assign node, or SILENT for any other step
SILENT = None


def render_action(a) -> str:
    if a is SILENT:
        return "τ"
    if isinstance(a, Assign):
        return f"{a.name}:={value_literal(a.value)}"
    raise TypeError(f"not an action: {a!r}")


class Edge(NamedTuple):
    """A labelled transition.  A tuple, for cheap construction: never hand
    one to a JSON writer as a value, which would print it as a list."""
    source: Any
    action: Assign | None
    dest: Any


class Automaton(NamedTuple):
    """Node and edge tuples plus an initial node.

    Node type is arbitrary (cursors for compiled programs, ints for loaded
    ones, node sets after closure).  Tuples may hold duplicates; set
    semantics apply wherever membership is meant.
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
    focus = cur.loc.focus
    path = cur.loc.path
    if cur.entering:
        if isinstance(focus, (Skip, Assign)):
            return [Cursor(cur.loc, False)]
        if isinstance(focus, Seq):
            return [Cursor(Location(focus.first, SeqLeft(path, focus.second)), True)]
        if isinstance(focus, Cond):
            return [
                Cursor(Location(focus.then_branch,
                                CondThen(focus.test, path, focus.else_branch)), True),
                Cursor(Location(focus.else_branch,
                                CondElse(focus.test, focus.then_branch, path)), True),
            ]
        if isinstance(focus, While):
            return [
                Cursor(Location(focus.body, WhileBody(focus.test, path)), True),
                Cursor(cur.loc, False),
            ]
        raise TypeError(f"not a statement: {focus!r}")
    if isinstance(path, Top):
        return []
    return [advance(focus, path)]


def action_of(cur: Cursor) -> Assign | None:
    """Entering an assignment is the only observable step; its action is
    the Assign node itself."""
    if cur.entering and isinstance(cur.loc.focus, Assign):
        return cur.loc.focus
    return SILENT


def edges_of(cur: Cursor) -> list[Edge]:
    """Outgoing edges of one program point."""
    a = action_of(cur)
    return [Edge(cur, a, dest) for dest in step_image(cur)]


def program_automaton(c: Stmt) -> Automaton:
    """Compile a statement to its program-point automaton.

    Nodes are both cursors of every location in pre-order, so the node
    count is twice the subterm count.  The initial node enters the root.
    """
    nodes = cursors_of(all_locations(c, TOP))
    edges = tuple(e for cur in nodes for e in edges_of(cur))
    return Automaton(tuple(nodes), edges, Cursor(Location(c, TOP), True))


def is_regular(aut: Automaton) -> bool:
    """Initial node and every edge endpoint belong to the node list."""
    nodes = set(aut.nodes)
    return aut.init in nodes and all(
        e.source in nodes and e.dest in nodes for e in aut.edges)


def nodes_closed(aut: Automaton) -> bool:
    """Static successors of every node are nodes themselves."""
    nodes = set(aut.nodes)
    return all(dest in nodes for n in aut.nodes for dest in step_image(n))


def edges_closed(aut: Automaton) -> bool:
    """Every outgoing edge of every node is in the edge list."""
    edges = set(aut.edges)
    return all(e in edges for n in aut.nodes for e in edges_of(n))


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
        by_source.setdefault(e.source, []).append(e)
    trace = run_trace(c, state, max_steps)
    cfg = trace.start
    for i, (nxt, _rule) in enumerate(trace.steps):
        for e in by_source.get(cfg.cursor, []):
            if e.dest == nxt.cursor and action_effect(e.action, cfg.state) == nxt.state:
                break
        else:
            return SimulationReport(trace.status, i, (i, cfg, nxt))
        cfg = nxt
    return SimulationReport(trace.status, len(trace.steps))
