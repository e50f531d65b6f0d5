"""Silent-transition closure of automata.

The closure of a node is the least set containing it and closed under
following silent edges to nodes of the automaton.  Closing an automaton
replaces every node by its closure, keeps only non-silent edges, and draws
X -a-> Y whenever some member of X has a non-silent a-edge whose
destination has closure Y.  Membership of a node in a closed node is then
a weak simulation witness between the automaton and its closure, checked
by check_tau_simulation.

close_automaton is the one route to the closure sets.  It sorts the
distinct nodes by node_key once, runs a worklist on their ranks, builds
one NodeSet per distinct closure straight from its sorted ranks, and
orders the closed edges by rank tuples, so no sort key is computed per
edge.  The paper's fixpoint definition and a breadth-first search live in
the tests as oracles, which pin this route against both.

The closed automaton is kept on the automaton it was computed from, and
a second close_automaton call returns it as it is.  So when
check_tau_simulation closes its input to verify mc, it reuses the closure
the caller already made, and `zippersem check tausim` closes once.
"""

from dataclasses import dataclass

from .ast import HashConsed, value_literal
from .automaton import SILENT, Automaton, Edge
from .zipper import Cursor, render_path


def node_key(n):
    """Canonical sort key: numbers numerically, then strings, then cursors
    by (path, flag), then null.

    These are the node types that reach a closure: the cursors of compiled
    programs and the ids of JSON automata.  The leading tag keeps the order
    total over mixed ids, such as ints and strings side by side.
    """
    if isinstance(n, Cursor):
        return (2, render_path(n.loc.path), n.entering)
    if isinstance(n, str):
        return (1, n)
    if n is None:
        return (3,)
    return (0, n)


@dataclass(frozen=True, eq=False, repr=False)
class NodeSet(HashConsed):
    """Duplicate-free, canonically ordered set of base nodes.

    The node type of closed automata.  Hash-consed on the member tuple,
    which is unique per set because of the canonical order, so equal sets
    are one object.
    """
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "_set", frozenset(self.members))

    @classmethod
    def from_iter(cls, it) -> "NodeSet":
        return cls(tuple(sorted(set(it), key=node_key)))

    def __contains__(self, n):
        return n in self._set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def action_key(a):
    """Sort key of a closed edge's action, which is never silent."""
    return (a.name, value_literal(a.value))


def _closure_table(aut: Automaton):
    """Silent reachability for every distinct node, in one ranked pass.

    The distinct nodes are sorted by node_key once; a node's rank is its
    position in that order.  Returns (rank per node, nodes in rank order,
    closure of each rank as a sorted tuple of ranks).  Comparing closures
    as rank tuples orders them as comparing their sort keys would.
    """
    ranked = sorted(dict.fromkeys(aut.nodes), key=node_key)
    rank = {n: r for r, n in enumerate(ranked)}
    succ = [[] for _ in ranked]
    for e in aut.edges:
        if e.action == SILENT:
            si = rank.get(e.source)
            di = rank.get(e.dest)
            if si is not None and di is not None:
                succ[si].append(di)
    closures = []
    for r in range(len(ranked)):
        seen = {r}
        stack = [r]
        while stack:
            j = stack.pop()
            for k in succ[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        closures.append(tuple(sorted(seen)))
    return rank, ranked, closures


def close_automaton(aut: Automaton) -> Automaton:
    """The silent-free automaton over closures.

    Closed nodes are the closures of the nodes, in node-list order.  The
    closed edges are deduplicated and in canonical order: X -a-> Y is kept
    iff some non-silent edge (s, a, d) of the automaton has s in X and
    closure(d) = Y.  Enumerating actual edges instead of the full
    (node, action, node) candidate product yields the same set: a
    candidate survives the definition's filter exactly when such a
    witness edge exists, and distinct nodes with equal closures collapse
    into one deduplicated edge.  Edges with an endpoint outside the node
    list are skipped, they cannot be witnessed (sources because closures
    only hold nodes, destinations because their closure contains a
    non-node).  An initial node outside the node list is closed too: its
    closure is itself plus the closures of the nodes one silent edge away.

    Computed once per automaton: the result is kept on `aut` and returned
    again by later calls.
    """
    try:
        return aut._closed
    except AttributeError:
        pass
    rank, ranked, closures = _closure_table(aut)
    sets = {}
    for cl in closures:
        if cl not in sets:
            sets[cl] = NodeSet(tuple(ranked[j] for j in cl))
    nodes = tuple(sets[closures[rank[n]]] for n in aut.nodes)

    ns_out = [[] for _ in ranked]
    for e in aut.edges:
        if e.action == SILENT:
            continue
        si = rank.get(e.source)
        di = rank.get(e.dest)
        if si is not None and di is not None:
            ns_out[si].append((e.action, closures[di]))
    found = set()
    for src in sets:
        for m in src:
            for a, dst in ns_out[m]:
                found.add((src, a, dst))
    edges = tuple(Edge(sets[src], a, sets[dst]) for src, a, dst in
                  sorted(found, key=lambda t: (t[0], action_key(t[1]), t[2])))

    ri = rank.get(aut.init)
    if ri is not None:
        init = sets[closures[ri]]
    else:
        seed = {aut.init}
        reached = set()
        for e in aut.edges:
            if e.action == SILENT and e.source in seed and e.dest in rank:
                reached.update(closures[rank[e.dest]])
        init = NodeSet.from_iter([aut.init, *(ranked[j] for j in reached)])
    closed = Automaton(nodes, edges, init)
    object.__setattr__(aut, "_closed", closed)
    return closed


@dataclass
class TauSimReport:
    """Outcome of the weak simulation witness check."""
    checked_pairs: int
    ok: bool
    violation: tuple | None = None  # (node, node set, Edge or None, reason)


def check_tau_simulation(m: Automaton, mc: Automaton) -> TauSimReport:
    """Check that membership witnesses a weak simulation of m by mc.

    mc must be close_automaton(m), verified first by comparing nodes,
    edges and initial node; closed nodes are interned, so that is a walk
    over pointers.  The relation relates s to S iff s is a node of m, S a
    node of mc, and s is a member of S.  It must relate the initial nodes,
    and for every related pair and every m-edge from s: a silent edge's
    destination must stay related to S itself, a non-silent edge must be
    matched by an mc-edge from S with the same action whose destination
    relates to the destination node.  In a closure every member is a node
    of m, and the initial nodes are related iff m.init is a node of m.
    """
    expected = close_automaton(m)
    if not (mc.nodes == expected.nodes and mc.edges == expected.edges
            and mc.init == expected.init):
        return TauSimReport(0, False, (None, None, None,
                                       "second automaton is not the closure of the first"))
    if m.init not in m.nodes:
        return TauSimReport(0, False, (m.init, mc.init, None,
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
                if e.action == SILENT and e.dest in s2:
                    continue
                if any(e2.action == e.action and e.dest in e2.dest
                       for e2 in mc_out.get(s2, [])):
                    continue
                return TauSimReport(checked, False, (s1, s2, e, "unmatched edge"))
    return TauSimReport(checked, True)
