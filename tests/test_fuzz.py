"""Fuzz gate for the automaton JSON loader.

Valid automaton JSON is mutated (keys dropped, values swapped for other
types, values nested, ids made foreign or duplicated) and fed to every
command that reads it.  Each must end in a documented exit code, never in
an uncaught exception.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_automaton
from zippersem.ast import value_literal
from zippersem.automaton import SILENT
from zippersem.cli import main

COMMANDS = (["tauclose", "--automaton"],
            ["check", "tausim", "--automaton"],
            ["check", "regular", "--automaton"])

OTHER_VALUES = [None, True, 0, -1, 1.5, "", "x", "if", [], {}, [1], {"id": 1},
                {"kind": "none"}, {"kind": "assign", "var": "x", "val": "true"}]


def _action_json(a):
    if a is SILENT:
        return {"kind": "none"}
    return {"kind": "assign", "var": a.name, "val": value_literal(a.value)}


def _base_json(seed, object_nodes):
    m = random_automaton(random.Random(seed), max_nodes=6, max_edges=10)
    return {"nodes": [{"id": n} if object_nodes else n for n in m.nodes],
            "edges": [{"source": s, "action": _action_json(a), "dest": d}
                      for s, a, d in m.edges],
            "init": m.init}


def _paths(doc, prefix=()):
    """Paths (key and index sequences) to every value below the root."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _mutate(doc, data):
    """Apply one drawn mutation at one drawn path; returns the document."""
    paths = list(_paths(doc))
    if not paths:
        return copy.deepcopy(data.draw(st.sampled_from(OTHER_VALUES)))
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    value = parent[key]
    op = data.draw(st.sampled_from(["drop", "swap", "nest", "foreign",
                                    "duplicate"]))
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(
            [v for v in OTHER_VALUES if type(v) is not type(value)])))
    elif op == "nest":
        parent[key] = data.draw(st.sampled_from(
            [[value], {"id": value}, [[[value]]]]))
    elif op == "foreign":
        parent[key] = data.draw(st.sampled_from([99, "n99", -7, 2.5, None]))
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    else:
        parent[key] = [value, copy.deepcopy(value)]
    return doc


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(seed=st.integers(0, 10**6), object_nodes=st.booleans(),
       rounds=st.integers(1, 4), data=st.data())
def test_mutated_automaton_json_never_crashes(seed, object_nodes, rounds,
                                              data):
    doc = _base_json(seed, object_nodes)
    for _ in range(rounds):
        doc = _mutate(doc, data)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + [path])
            assert code in (0, 2, 5), (command, doc, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().splitlines()[-1].startswith("error: ")
    finally:
        os.unlink(path)
