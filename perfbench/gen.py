"""Seeded input generators owned by the benchmark.

Programs are built as plain tuples, independent of `zippersem.ast`, so the
benchmark's inputs and references do not move when the package changes:

    ("skip",)  ("assign", name, lit)  ("seq", a, b)
    ("if", test, a, b)  ("while", test, body)

A test is ("var", name) or ("lit", lit), and a lit is one of the strings
"true", "false", "null".  Automata are dicts in the README JSON shape.
"""

LITS = ("true", "false", "null")
NAMES = ("a", "b", "c", "x", "y", "z")


# ---------------------------------------------------------------- programs

def subterms(c):
    """Statement subterm count, iteratively (chains can be long)."""
    n, stack = 0, [c]
    while stack:
        s = stack.pop()
        n += 1
        stack.extend(s[2:] if s[0] in ("seq", "if") else s[2:3] if s[0] == "while" else ())
    return n


def _test(t):
    return t[1]


def render(c) -> str:
    """Canonical single-line source: what `zippersem parse` prints back."""
    out = []
    stack = [c]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
            continue
        kind = s[0]
        if kind == "skip":
            out.append("skip")
        elif kind == "assign":
            out.append(f"{s[1]} := {s[2]}")
        elif kind == "seq":
            stack += [s[2], "; ", s[1]]
        elif kind == "if":
            stack += [" }", s[3], " } else { ", s[2], f"if ({_test(s[1])}) {{ "]
        else:
            stack += [" }", s[2], f"while ({_test(s[1])}) {{ "]
    return "".join(out)


def render_file(c, label: str) -> str:
    """Multi-line layout with a comment header, as a user would write it.

    Parses to the same tree as `render(c)`, so the parser's whitespace,
    comment and line handling is on the measured path.
    """
    out = [f"// {label}\n"]
    stack = [(c, 0)]
    while stack:
        s, ind = stack.pop()
        if isinstance(s, str):
            out.append(s)
            continue
        pad = "  " * ind
        kind = s[0]
        if kind == "skip":
            out.append(pad + "skip")
        elif kind == "assign":
            out.append(f"{pad}{s[1]} := {s[2]}")
        elif kind == "seq":
            stack += [(s[2], ind), (";\n", 0), (s[1], ind)]
        elif kind == "if":
            stack += [(f"\n{pad}}}", 0), (s[3], ind + 1),
                      (f"\n{pad}}} else {{\n", 0), (s[2], ind + 1),
                      (f"{pad}if ({_test(s[1])}) {{\n", 0)]
        else:
            stack += [(f"\n{pad}}}", 0), (s[2], ind + 1),
                      (f"{pad}while ({_test(s[1])}) {{\n", 0)]
    out.append("\n")
    return "".join(out)


def seq_chain(stmts):
    """Right-nested ';' chain, the only form the grammar derives."""
    c = stmts[-1]
    for s in reversed(stmts[:-1]):
        c = ("seq", s, c)
    return c


def _random_stmt(rng, depth):
    """The distribution of tests/randgen.py random_stmt(derivable=True)."""
    if depth <= 0:
        if rng.random() < 0.3:
            return ("skip",)
        return ("assign", rng.choice(NAMES), rng.choice(LITS))
    r = rng.random()
    if r < 0.10:
        return ("skip",)
    if r < 0.45:
        return ("assign", rng.choice(NAMES), rng.choice(LITS))
    if r < 0.70:
        while True:
            first = _random_stmt(rng, depth - 1)
            if first[0] != "seq":
                break
        return ("seq", first, _random_stmt(rng, depth - 1))
    if r < 0.85:
        return ("if", _random_test(rng), _random_stmt(rng, depth - 1),
                _random_stmt(rng, depth - 1))
    return ("while", _random_test(rng), _random_stmt(rng, depth - 1))


def _random_test(rng):
    if rng.random() < 0.6:
        return ("var", rng.choice(NAMES))
    return ("lit", rng.choice(LITS))


def random_program(rng, max_depth=8, max_size=60):
    while True:
        c = _random_stmt(rng, max_depth)
        if subterms(c) <= max_size:
            return c


def random_state(rng):
    """Partial state over the name pool, values may be null."""
    return {n: rng.choice(LITS) for n in NAMES if rng.random() < 0.5}


def nested(d, test="a", inner="x", tail="y"):
    """`x := true` wrapped d times in `while (a) { ...; y := false }`."""
    c = ("assign", inner, "true")
    for _ in range(d):
        c = ("while", ("var", test), ("seq", c, ("assign", tail, "false")))
    return c


def chain(rng, n):
    """n statements joined by ';': every tenth is a skip, the others are
    assignments.  Skips are silent, so their number and place set the
    closure; they are fixed and the seed picks only the assignments."""
    return seq_chain([("skip",) if i % 10 == 9
                      else ("assign", rng.choice(NAMES), rng.choice(LITS))
                      for i in range(n)])


def state_arg(state: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in state.items())


# ---------------------------------------------------------------- automata

def _assign_action(rng):
    return {"kind": "assign", "var": rng.choice(NAMES), "val": rng.choice(LITS)}


SILENT = {"kind": "none"}


def sparse_automaton(rng, n, assign_per_node):
    """Mostly acyclic silent chains: two nodes in three have a silent edge
    a few positions ahead, so silent out-degree is below 1 and the mean
    closure has about 3 members.  Which nodes have one, and how many
    assignment edges leave each node, are fixed; the seed picks the jumps,
    actions and destinations."""
    edges = []
    for i in range(n):
        if i % 3 != 2 and i + 1 < n:
            edges.append((i, SILENT, min(n - 1, i + rng.randint(1, 3))))
        for _ in range(int((i + 1) * assign_per_node) - int(i * assign_per_node)):
            edges.append((i, _assign_action(rng), rng.randrange(n)))
    rng.shuffle(edges)
    return _automaton_json(n, edges, rng.randrange(n))


def dense_automaton(rng, n, n_edges, giant_share=0.7, feed_share=0.83):
    """One giant silent strongly connected component: a silent cycle over
    `giant_share` of the nodes plus silent chords, with `feed_share` of the
    other nodes feeding into it.  Mean closure size is about
    giant_share * n."""
    order = list(range(n))
    rng.shuffle(order)
    g = int(n * giant_share)
    giant, rest = order[:g], order[g:]
    edges = [(giant[i], SILENT, giant[(i + 1) % g]) for i in range(g)]
    edges += [(rng.choice(giant), SILENT, rng.choice(giant)) for _ in range(g)]
    edges += [(v, SILENT, rng.choice(giant)) for v in rest[:round(feed_share * len(rest))]]
    # assignment edges leave the nodes in turn, so each node's count is fixed
    for i in range(n_edges - len(edges)):
        edges.append((order[i % n], _assign_action(rng), rng.randrange(n)))
    rng.shuffle(edges)
    return _automaton_json(n, edges, rng.choice(giant))


def _automaton_json(n, edges, init):
    return {"nodes": [{"id": i} for i in range(n)],
            "edges": [{"source": s, "action": a, "dest": d} for s, a, d in edges],
            "init": init}
