"""Reference oracles for the benchmark's output checks.

None of this imports `zippersem`: each oracle recomputes from the
benchmark's own program tuples (see gen.py) or from automaton JSON what a
command must print, so a wrong output is caught even when it is stable.

* `run_program` is a stack-machine interpreter that predicts status, step
  count and final state of `zippersem run` without any zipper.
* `program_automaton` numbers program points the way the package's JSON
  does (pre-order locations, entering then leaving) and derives the edges
  straight from the syntax tree.
* `close` is a breadth-first closure oracle over an integer automaton.
* `check_*` compare one command's exit code and output with an oracle and
  return None, or a one-line reason for the mismatch.
"""

import json

TERMINATED, STUCK, STEP_LIMIT = "terminated", "stuck", "step-limit"
STATUS_EXIT = {TERMINATED: 0, STUCK: 3, STEP_LIMIT: 4}
SILENT = ("none",)


# ------------------------------------------------------------------- run

def run_program(c, state, max_steps):
    """(status, steps, final state) of the small-step run.

    One step per rule firing: entering a skip or an assignment, entering a
    ';' (to its first arm), passing from the first arm to the second,
    leaving the second arm, entering a conditional, leaving a branch,
    entering a loop (to its body or out), and returning from the body to
    the loop header.  Leaving the whole program is terminal, a null test
    is stuck, and a rule still applicable after max_steps is a step limit.
    """
    state = dict(state)
    steps = 0
    todo = [c]              # statements still to run, and "step" markers
    while todo:
        s = todo.pop()
        if s != "step" and s[0] in ("if", "while"):
            t = s[1]
            v = state.get(t[1], "null") if t[0] == "var" else t[1]
            if v == "null":
                return STUCK, steps, state
        if steps == max_steps:
            return STEP_LIMIT, steps, state
        steps += 1
        if s == "step":
            continue
        kind = s[0]
        if kind == "assign":
            state[s[1]] = s[2]
        elif kind == "seq":
            todo += ["step", s[2], "step", s[1]]
        elif kind == "if":
            todo += ["step", s[2] if v == "true" else s[3]]
        elif kind == "while" and v == "true":
            todo += [s, "step", s[2]]
    return TERMINATED, steps, state


def render_state(state) -> str:
    return "{" + ", ".join(f"{k}={state[k]}" for k in sorted(state)) + "}"


# ------------------------------------------------------------- automata

def program_automaton(c):
    """(node count, edges, init) of the program-point automaton.

    Location k in pre-order has node 2k (about to run) and 2k+1 (just
    finished).  Edges are (source, action, dest) in the package's order,
    with action SILENT or ("assign", var, val); only entering an
    assignment is observable.
    """
    stmts, kids, parent = [], [], []
    stack = [(c, None)]
    while stack:                        # pre-order numbering
        s, up = stack.pop()
        k = len(stmts)
        stmts.append(s)
        kids.append([])
        parent.append(up)
        if up is not None:
            kids[up].append(k)
        sub = s[1:3] if s[0] == "seq" else s[2:4] if s[0] == "if" else s[2:3] \
            if s[0] == "while" else ()
        stack += [(x, k) for x in reversed(sub)]
    edges = []
    kind = [s[0] for s in stmts]
    for k, s in enumerate(stmts):
        enter, leave = 2 * k, 2 * k + 1
        what = s[0]
        if what == "skip":
            edges.append((enter, SILENT, leave))
        elif what == "assign":
            edges.append((enter, ("assign", s[1], s[2]), leave))
        elif what == "seq":
            edges.append((enter, SILENT, 2 * kids[k][0]))
        else:                           # both branches, or body and exit
            edges += [(enter, SILENT, 2 * j) for j in kids[k]]
            if what == "while":
                edges.append((enter, SILENT, leave))
        p = parent[k]
        if p is None:
            continue                    # leaving the root is terminal
        if kind[p] == "seq" and kids[p][0] == k:
            edges.append((leave, SILENT, 2 * kids[p][1]))  # on to the second arm
        elif kind[p] == "while":
            edges.append((leave, SILENT, 2 * p))           # back to the header
        else:
            edges.append((leave, SILENT, 2 * p + 1))       # the parent is done
    return 2 * len(stmts), edges, 0


def automaton_from_json(data):
    """(node count, edges, init) of an automaton JSON whose node ids are
    their positions, as the benchmark's generators and `compile` write."""
    edges = [(e["source"], _action(e["action"]), e["dest"]) for e in data["edges"]]
    return len(data["nodes"]), edges, data["init"]


def _action(a):
    return SILENT if a["kind"] == "none" else ("assign", a["var"], a["val"])


def close(n, edges, init):
    """Breadth-first closure oracle.

    Returns (closed nodes as sorted member tuples, distinct and in order of
    first occurrence over the base nodes; closed edge set over member
    tuples; members of the initial closure).
    """
    silent = [[] for _ in range(n)]
    loud = [[] for _ in range(n)]
    for s, a, d in edges:
        (silent if a == SILENT else loud)[s].append((a, d))
    closure = []
    for v in range(n):
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for _a, w in silent[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        closure.append(tuple(sorted(seen)))
    nodes = list(dict.fromkeys(closure))
    closed_edges = set()
    for x in nodes:
        for m in x:
            for a, d in loud[m]:
                closed_edges.add((x, a, closure[d]))
    return nodes, closed_edges, closure[init]


# ---------------------------------------------------------------- checks

def _exit(code, want):
    return None if code == want else f"exit code {code}, expected {want}"


def check_parse(code, out, err, canonical):
    return _exit(code, 0) or (None if out == canonical + "\n"
                              else "parse output differs from the canonical source")


def check_run_text(code, out, err, expect):
    status, steps, final = expect
    bad = _exit(code, STATUS_EXIT[status])
    if bad:
        return bad
    lines = out.splitlines()
    if not lines or not lines[-1].startswith(f"status: {status}"):
        return f"status line {lines[-1:]!r}, expected status {status}"
    if len(lines) != steps + 2:
        return f"{len(lines) - 2} step lines, expected {steps}"
    last = lines[-2]
    if not last.startswith(f"{steps}: "):
        return f"last step line {last[:40]!r}, expected step {steps}"
    if last.rsplit(" | ", 1)[-1] != render_state(final):
        return "final state differs"
    return None


def check_run_json(code, out, err, expect):
    status, steps, final = expect
    bad = _exit(code, STATUS_EXIT[status])
    if bad:
        return bad
    if err.strip() != f"status: {status}":
        return f"stderr {err.strip()[:40]!r}, expected status {status}"
    rows = json.loads(out)
    if len(rows) != steps + 1 or rows[-1]["step"] != steps:
        return f"{len(rows) - 1} steps in the JSON trace, expected {steps}"
    if rows[-1]["state"] != final:
        return "final state differs"
    return None


def check_sim(code, out, err, expect):
    status, steps, _final = expect
    want = f"sim: {steps} steps matched, trace status {status}\n"
    return _exit(code, 0) or (None if out == want else f"sim report {out[:60]!r}")


def check_compile_json(code, out, err, aut):
    n, edges, init = aut
    bad = _exit(code, 0)
    if bad:
        return bad
    data = json.loads(out)
    if len(data["nodes"]) != n:
        return f"{len(data['nodes'])} nodes, expected {n}"
    if len(data["edges"]) != len(edges):
        return f"{len(data['edges'])} edges, expected {len(edges)}"
    if data["init"] != init or automaton_from_json(data)[1] != edges:
        return "edges or initial node differ"
    return None


def check_compile_numbered(code, out, err, aut):
    n, edges, init = aut
    bad = _exit(code, 0)
    if bad:
        return bad
    data = json.loads(out)
    if len(data["nodes"]) != n or sorted(automaton_from_json(data)[1]) != sorted(edges):
        return "numbered automaton differs"
    return None


def check_compile_dot(code, out, err, aut):
    n, edges, init = aut
    bad = _exit(code, 0)
    if bad:
        return bad
    lines = out.splitlines()
    nodes = sum(1 for ln in lines if ln.startswith("  n") and "->" not in ln)
    arrows = [ln for ln in lines if ln.startswith("  n") and "->" in ln]
    if nodes != n or len(arrows) != len(edges):
        return f"DOT has {nodes} nodes and {len(arrows)} edges, expected {n} and {len(edges)}"
    if f"  __init -> n{init};" not in lines:
        return "DOT initial node differs"
    return None


def check_closed_json(code, out, err, closed):
    nodes, edges, init = closed
    bad = _exit(code, 0)
    if bad:
        return bad
    if err:
        return f"unexpected diagnostics {err[:60]!r}"
    data = json.loads(out)
    members = [tuple(x["members"]) for x in data["nodes"]]
    if members != nodes:
        return "closed nodes differ from the closure oracle"
    got = [(members[e["source"]], _action(e["action"]), members[e["dest"]])
           for e in data["edges"]]
    if len(got) != len(edges) or set(got) != edges:
        return "closed edges differ from the closure oracle"
    if members[data["init"]] != init:
        return "closed initial node differs"
    return None


def check_closure(code, out, err, _expect):
    want = "nodes closed: ok\nedges closed: ok\nstep image closed: ok\n"
    return _exit(code, 0) or (None if out == want else f"closure report {out[:60]!r}")


def check_tausim(code, out, err, closed):
    pairs = sum(len(x) for x in closed[0])
    want = f"tausim: {pairs} related pairs checked, ok\n"
    return _exit(code, 0) or (None if out == want else f"tausim report {out[:60]!r}")


def check_regular(code, out, err, _expect):
    return _exit(code, 0) or (None if out == "regular: ok\n" else f"regular report {out!r}")
