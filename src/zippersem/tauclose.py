"""Silent-transition closure of automata.

The closure of a node is the least set containing it and closed under
following silent edges to nodes of the automaton.  Closing an automaton
replaces every node by its closure, keeps only non-silent edges, and draws
X -a-> Y whenever some member of X has a non-silent a-edge whose
destination has closure Y.  Membership of a node in a closed node is then
a weak simulation witness between the automaton and its closure, checked
by check_tau_simulation.

close_automaton is the one route to the closure sets, and its cost is
near-linear in its output.  It ranks the distinct nodes once in canonical
order; cursors, NamedTuples over interned fields, are ranked by
path_ranks, so no path is rendered.  One walk over the edges collects
the silent successors and the witnessed edges.  One search over the
silent edges then completes their strongly connected components (Tarjan,
SIAM J. Comput. 1972), in reverse topological order, and builds each
component's closure as it completes, from the closures of its successors
(Nuutila, Efficient Transitive Closure Computation in Large Digraphs,
1995).  A node without silent edges, or a single node with one, needs no
search state or sort; every other component's closure is one set of its
members and its successors' closures, sorted.  Each component's closure
is one closed node, and one list indexed by rank gives each node's.
Numbered in sorted order, these closure ids key the closed edges, which
are deduplicated and sorted as integers.  The paper's fixpoint
definition, a breadth-first search and the rendered sort key live in the
tests as oracles, which pin this route against them.

check_tau_simulation closes its input itself, so the closure it checks
is the one close_automaton computes, and `zippersem check tausim` closes
at most once.  It matches an edge by one set lookup of the closed edge
to its destination's closed node, and groups the closed edges by action
only when a lookup misses.
"""

from bisect import bisect_left
from functools import cache
from typing import NamedTuple

from .ast import HashConsed, value_literal
from .automaton import SILENT, Automaton
from .zipper import Cursor, path_ranks


def node_order(nodes):
    """Canonical sort key over `nodes`: numbers numerically, then strings,
    then cursors in render_path order of their paths, leaving before
    entering, then null.

    These are the node types that reach a closure: the cursors of compiled
    programs and the ids of JSON automata.  The leading tag keeps the order
    total over mixed ids, such as ints and strings side by side.  Cursors
    of different trees with equal rendered paths tie.
    """
    ranks = path_ranks(n.path for n in nodes if isinstance(n, Cursor))

    def key(n):
        if isinstance(n, Cursor):
            return (2, ranks[n.path], n.entering)
        if isinstance(n, str):
            return (1, n)
        if n is None:
            return (3,)
        return (0, n)
    return key


class NodeSet:
    """Duplicate-free, canonically ordered set of base nodes.

    The node type of closed automata.  Not hash-consed: close_automaton
    builds each closed node once and shares it, so a closed automaton's
    equal node sets are one object, and equality and hashing are object
    identity.  Closed nodes of two closes are distinct objects; compare
    their `members`.  Immutable, with no `__dict__`.
    """
    __slots__ = ("members",)

    def __init__(self, members: tuple):
        object.__setattr__(self, "members", members)

    __setattr__ = HashConsed.__setattr__
    __delattr__ = HashConsed.__delattr__
    __repr__ = HashConsed.__repr__

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def action_key(a):
    """Sort key of a closed edge's action, which is never silent."""
    return (a.name, value_literal(a.value))


def _closures(succ):
    """Silent reachability of the graph i -> succ[i], one closure per
    strongly connected component, in one iterative Tarjan search.

    A vertex with no successor is its own component and closure, and
    never enters the search.  The search completes the other components
    in reverse topological order, so when it pops a component, every
    component that one reaches is complete, and its closure is built
    there and then.  A single vertex whose one edge leads to another
    component takes that closure with itself inserted in order.  Any
    other component takes the set of its members, updated with the
    closure of each successor component, then sorted.  Returns
    (component per vertex, closure of each component as a sorted tuple
    of vertices, successor components each closure was built from), with
    components numbered in completion order.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n         # -1 while unvisited or on the stack
    stack = []
    closures = []
    parts = []
    for v in range(n):
        if not succ[v]:     # a sink, complete before the search starts
            index[v] = 0
            comp[v] = len(closures)
            closures.append((v,))
            parts.append(())
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                c = len(closures)
                if stack[-1] == v and len(succ[v]) == 1:
                    stack.pop()
                    comp[v] = c
                    d = comp[succ[v][0]]
                    if d == c:      # a silent self-loop
                        closures.append((v,))
                        parts.append(())
                    else:
                        after = closures[d]
                        i = bisect_left(after, v)
                        closures.append(after[:i] + (v,) + after[i:])
                        parts.append((d,))
                    continue
                reach = set()
                w = None
                while w != v:
                    w = stack.pop()
                    comp[w] = c
                    reach.add(w)
                after = {comp[j] for i in reach for j in succ[i]} - {c}
                for d in after:
                    reach.update(closures[d])
                closures.append(tuple(sorted(reach)))
                parts.append(after)
    return comp, closures, parts


def close_automaton(aut: Automaton) -> Automaton:
    """The silent-free automaton over closures.

    Closed nodes are the closures of the nodes, in node-list order.  The
    closed edges are deduplicated and in canonical order: X -a-> Y is kept
    iff some non-silent edge (s, a, d) of the automaton has s in X and
    closure(d) = Y.  Enumerating actual edges instead of the full
    (node, action, node) candidate product yields the same set: a
    candidate survives the definition's filter exactly when such a
    witness edge exists, and distinct nodes with equal closures collapse
    into one deduplicated edge.  The edges of a closure are those of its
    component's members plus those of the successor closures it was built
    from.  Edges with an endpoint outside the node list are skipped, they
    cannot be witnessed (sources because closures only hold nodes,
    destinations because their closure contains a non-node).  Raises
    ValueError for an initial node outside the node list, which has no
    closed node.
    """
    # a node's rank is its position in node_order; comparing closures as
    # rank tuples orders them as comparing their members' sort keys would
    distinct = list(dict.fromkeys(aut.nodes))
    ranked = sorted(distinct, key=node_order(distinct))
    rank = {n: r for r, n in enumerate(ranked)}
    if aut.init not in rank:
        raise ValueError("the closed automaton has no node id for an "
                         "initial node outside the node list")
    succ = [[] for _ in ranked]
    witnessed = []
    for s, a, d in aut.edges:
        si = rank.get(s)
        di = rank.get(d)
        if si is None or di is None:
            continue
        if a is SILENT:
            succ[si].append(di)
        else:
            witnessed.append((si, a, di))
    comp, closures, parts = _closures(succ)
    order = sorted(range(len(closures)), key=closures.__getitem__)
    cid = [0] * len(closures)
    for i, c in enumerate(order):
        cid[c] = i
    sets = [NodeSet(tuple(map(ranked.__getitem__, closures[c]))) for c in order]
    closed = [sets[cid[c]] for c in comp]       # closed node of each rank
    nodes = tuple(closed[rank[n]] for n in aut.nodes)
    actions = sorted({a for _, a, _ in witnessed}, key=action_key)
    action_id = {a: i for i, a in enumerate(actions)}
    # a closed edge from a component is the integer action id * k +
    # destination id, so integer order is (action, destination) order
    k = len(sets)
    out = [set() for _ in closures]
    for si, a, di in witnessed:
        out[comp[si]].add(action_id[a] * k + cid[comp[di]])
    for c, took in enumerate(parts):
        for d in took:
            out[c] |= out[d]
    edges = []
    for c in order:
        src = sets[cid[c]]
        edges += [(src, actions[t // k], sets[t % k]) for t in sorted(out[c])]
    return Automaton(nodes, tuple(edges), closed[rank[aut.init]])


class TauSimReport(NamedTuple):
    """Outcome of the weak simulation witness check."""
    checked_pairs: int
    # (node, node set or None, (source, action, dest) or None, reason)
    violation: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_tau_simulation(m: Automaton) -> TauSimReport:
    """Check that membership witnesses a weak simulation of m by its
    closure mc = close_automaton(m), which this computes once.

    The relation relates s to S iff s is a node of m, S a node of mc, and
    s is a member of S.  It must relate the initial nodes, and for every
    related pair and every m-edge from s: a silent edge's destination must
    stay related to S itself, a non-silent edge must be matched by an
    mc-edge from S with the same action whose destination relates to the
    destination node.  In a closure every member is a node of m, and the
    initial nodes are related iff m.init is a node of m, which is tested
    first: an automaton that fails it is reported and not closed.

    The check is that definition's scan: over each distinct S, its members
    in order and each member's edges in edge order, so the first violation
    it meets is the one reported.  A silent edge s -> d stays when d is in
    S.  A non-silent edge s -a-> d is matched by one set lookup when
    S -a-> D is a closed edge for D, the closed node of d, and D holds d,
    as it does in a closure.  Only at the first edge that is not are the
    closed edges grouped by source and then by action; that edge and
    every later one the lookup misses are matched by a search of S's
    a-destinations for one holding d.
    """
    if m.init not in m.nodes:
        return TauSimReport(0, (m.init, None, None,
                                "initial nodes are not related"))
    mc = close_automaton(m)
    closed_of = dict(zip(m.nodes, mc.nodes))
    m_out = {}
    for e in m.edges:
        m_out.setdefault(e[0], []).append(e)
    closed_edges = set(mc.edges)
    mc_out = None       # closed node -> action -> destinations
    # the member set of each destination closed node searched, built once
    members_of = cache(lambda s2: set(s2.members))
    checked = 0
    for s2 in dict.fromkeys(mc.nodes):
        # a set that lives for this closed node's scan only: a member set
        # kept for every closed node at once nearly tripled peak memory on
        # a 2000-statement chain
        inside = set(s2.members)
        for s1 in s2.members:
            checked += 1
            for e in m_out.get(s1, ()):
                _, a, d = e
                if a is SILENT:
                    if d in inside:
                        continue
                else:
                    d2 = closed_of.get(d)
                    if (s2, a, d2) in closed_edges and d in members_of(d2):
                        continue
                if mc_out is None:
                    mc_out = {}
                    for src, a2, d2 in mc.edges:
                        mc_out.setdefault(src, {}).setdefault(a2, []).append(d2)
                if any(d in members_of(d2)
                       for d2 in mc_out.get(s2, {}).get(a, ())):
                    continue
                return TauSimReport(checked, (s1, s2, e, "unmatched edge"))
    return TauSimReport(checked)
