"""Seeded random generators for programs, states and automata.

Everything takes an explicit random.Random so test failures replay from
the seed alone.
"""

from oracles import subterm_count
from zippersem.ast import (FALSE, NULL, TRUE, Assign, Cond, Lit, Seq, Skip,
                           Var, While)
from zippersem.automaton import SILENT, Automaton

NAMES = ["a", "b", "c", "x", "y", "z"]

VALUES = [TRUE, FALSE, NULL]


def random_value(rng):
    return rng.choice(VALUES)


def random_expr(rng, null_ok=True):
    if rng.random() < 0.6:
        return Var(rng.choice(NAMES))
    return Lit(rng.choice(VALUES if null_ok else [TRUE, FALSE]))


def random_stmt(rng, depth, derivable=False, null_conditions=True):
    """Random statement with nesting budget `depth`.

    derivable=True keeps the first arm of every chain off Seq, so the
    result has a concrete source form (the grammar right-associates ';').
    null_conditions=False draws condition literals from true/false only;
    combined with a state binding every pool variable to a boolean this
    makes runs stuck-free.
    """
    if depth <= 0:
        if rng.random() < 0.3:
            return Skip()
        return Assign(rng.choice(NAMES), random_value(rng))
    r = rng.random()
    if r < 0.10:
        return Skip()
    if r < 0.45:
        return Assign(rng.choice(NAMES), random_value(rng))
    if r < 0.70:
        if derivable:
            first = _random_non_seq(rng, depth - 1, derivable, null_conditions)
        else:
            first = random_stmt(rng, depth - 1, derivable, null_conditions)
        return Seq(first, random_stmt(rng, depth - 1, derivable, null_conditions))
    if r < 0.85:
        return Cond(random_expr(rng, null_conditions),
                    random_stmt(rng, depth - 1, derivable, null_conditions),
                    random_stmt(rng, depth - 1, derivable, null_conditions))
    return While(random_expr(rng, null_conditions),
                 random_stmt(rng, depth - 1, derivable, null_conditions))


def _random_non_seq(rng, depth, derivable, null_conditions):
    while True:
        c = random_stmt(rng, depth, derivable, null_conditions)
        if not isinstance(c, Seq):
            return c


def random_program(rng, max_depth=8, derivable=False, null_conditions=True,
                   max_size=60):
    # resample oversized trees; keeps corpora cheap without skewing shapes
    while True:
        c = random_stmt(rng, max_depth, derivable, null_conditions)
        if subterm_count(c) <= max_size:
            return c


def random_state(rng, complete=False):
    """Partial state over the name pool; complete=True binds every name
    to a boolean (no null reads possible)."""
    state = {}
    for name in NAMES:
        if complete:
            state[name] = rng.choice([TRUE, FALSE])
        elif rng.random() < 0.5:
            state[name] = random_value(rng)
    return state


def random_automaton(rng, max_nodes=12, max_edges=30):
    """Random automaton over int nodes 1..n, regular by construction
    (all edge endpoints and the start node drawn from the node list),
    roughly 45% silent edges."""
    n = rng.randint(1, max_nodes)
    nodes = tuple(range(1, n + 1))
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        if rng.random() < 0.45:
            action = SILENT
        else:
            action = Assign(rng.choice(NAMES), random_value(rng))
        edges.append((rng.choice(nodes), action, rng.choice(nodes)))
    return Automaton(nodes, tuple(edges), rng.choice(nodes))


def random_silent_automaton(rng, max_nodes=24):
    """Random automaton around one silent shape: self-loops, 2-cycles, one
    giant silent cycle with chords, or a chain of silent cycles.  Node ids
    are ints, strings or both; node entries may repeat, some edges leave
    the node list or enter it from outside, and the initial node may be
    foreign.  Not regular in general."""
    n = rng.randint(1, max_nodes)
    shape = rng.choice(["loops", "pairs", "giant", "chain"])
    silent = []
    if shape == "loops":
        silent = [(i, i) for i in range(n) if rng.random() < 0.6]
    elif shape == "pairs":
        for i in range(0, n - 1, 2):
            silent += [(i, i + 1), (i + 1, i)]
    elif shape == "giant":
        silent = [(i, (i + 1) % n) for i in range(n)]
        silent += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 3)]
    else:
        start = 0
        while start < n:
            size = min(rng.randint(1, 4), n - start)
            block = list(range(start, start + size))
            silent += [(i, block[(k + 1) % size]) for k, i in enumerate(block)]
            if start + size < n:
                silent.append((rng.choice(block), start + size))
            start += size
    silent += [(rng.randrange(n), rng.randrange(n))
               for _ in range(rng.randint(0, 3))]
    kind = rng.choice(["int", "str", "mixed"])
    name = [i if kind == "int" or (kind == "mixed" and i % 2) else f"n{i}"
            for i in range(n)]
    edges = [(name[s], SILENT, name[d]) for s, d in silent]
    for _ in range(rng.randint(0, 2 * n)):
        edges.append((name[rng.randrange(n)],
                      Assign(rng.choice(NAMES[:3]), random_value(rng)),
                      name[rng.randrange(n)]))
    for _ in range(rng.randint(0, 2)):
        action = rng.choice([SILENT, Assign("a", TRUE)])
        if rng.random() < 0.5:
            edges.append((name[rng.randrange(n)], action, "out"))
        else:
            edges.append((99, action, name[rng.randrange(n)]))
    rng.shuffle(edges)
    nodes = name + [rng.choice(name) for _ in range(rng.randint(0, 3))]
    rng.shuffle(nodes)
    init = 99 if rng.random() < 0.15 else rng.choice(name)
    return Automaton(tuple(nodes), tuple(edges), init)
