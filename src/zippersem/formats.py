"""Serialization: automata and traces to JSON and DOT, and back for the
generic integer-noded automaton shape.

Node rendering lives here: render_node prints cursors, closures and plain
ids.  One writer, automaton_json_text, lays out every automaton JSON
shape; the shapes differ only in their node rows.  JSON node ids and DOT
node names are positions in the node list, so exports are deterministic
and re-import as the position-renamed automaton.

JSON text is written straight from the automaton or trace with fixed row
templates, in the bytes of json.dumps with indent=2, sorted keys and
non-ASCII kept, plus a newline.  Template keys are in sorted order,
strings go through the C string encoder, and ints and bools are written
directly.  The two dict-valued functions are those texts parsed back,
for the benchmark's own tests.
"""

import json
from functools import cache
from json.encoder import encode_basestring

from .ast import (Assign, brief_repr, is_valid_name, parse_value_literal,
                  print_program, value_literal)
from .automaton import SILENT, Automaton, Edge, render_action
from .semantics import Trace
from .tauclose import NodeSet
from .zipper import Cursor, render_cursor, render_path


def _rows(items: list, indent: str) -> list:
    """A JSON list of pre-rendered items, as pieces for the one join of a
    whole text: its brackets sit at indent and each item starts two
    spaces deeper.  A single join copies a large output once."""
    if not items:
        return ["[]"]
    inner = "\n  " + indent
    pieces = ["," + inner] * (2 * len(items))
    pieces[0] = "[" + inner
    pieces[1::2] = items
    pieces.append("\n" + indent + "]")
    return pieces


# an action at the depth of an edge's fields
_SILENT_TEXT = '{\n        "kind": "none"\n      }'
_ASSIGN_ROW = ('{\n        "kind": "assign",\n        "val": %s,'
               '\n        "var": %s\n      }')


def _action_text(a) -> str:
    if a is SILENT:
        return _SILENT_TEXT
    if isinstance(a, Assign):
        return _ASSIGN_ROW % (encode_basestring(value_literal(a.value)),
                              encode_basestring(a.name))
    raise TypeError(f"not an action: {a!r}")


def action_from_json(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "none":
        return SILENT
    var = obj.get("var") if kind == "assign" else None
    if isinstance(var, str) and is_valid_name(var):
        return Assign(var, parse_value_literal(obj["val"]))
    raise ValueError(f"bad action: {brief_repr(obj)}")


def _action(obj, built: dict):
    """action_from_json(obj), built once per hashable (kind, var, val)."""
    try:
        key = (obj.get("kind"), obj.get("var"), obj.get("val"))
        if key not in built:
            built[key] = action_from_json(obj)
        return built[key]
    except (AttributeError, TypeError):
        return action_from_json(obj)


def render_node(n) -> str:
    if isinstance(n, Cursor):
        return render_cursor(n)
    if isinstance(n, NodeSet):
        return "{" + ", ".join(render_node(m) for m in n.members) + "}"
    return str(n)


def _node_ids(aut: Automaton) -> dict:
    ids = {}
    for n in aut.nodes:
        if n not in ids:
            ids[n] = len(ids)
    return ids


_EDGE_ROW = '{\n      "action": %s,\n      "dest": %d,\n      "source": %d\n    }'


def automaton_json_text(aut: Automaton, node_row) -> str:
    """The JSON text of every automaton: positional node ids, edges
    between ids and the initial node's id.  node_row(n, i) gives the
    object of node n with id i as an item of the node list: fields at
    six spaces, closing brace at four."""
    ids = _node_ids(aut)
    # edges share a few actions, each rendered once
    actions = {a: _action_text(a) for a in {e.action for e in aut.edges}}
    edges = [_EDGE_ROW % (actions[a], ids[dest], ids[source])
             for source, a, dest in aut.edges]
    nodes = [node_row(n, i) for n, i in ids.items()]
    return "".join(['{\n  "edges": ', *_rows(edges, "  "),
                    ',\n  "init": %d,\n  "nodes": ' % ids[aut.init],
                    *_rows(nodes, "  "), "\n}\n"])


_PROGRAM_NODE_ROW = ('{\n      "flag": %s,\n      "focus": %s,\n      "id": %d,'
                     '\n      "path": %s\n    }')


def program_automaton_json_text(aut: Automaton) -> str:
    """JSON text for a cursor-noded automaton."""
    # two cursors share each location; equal subterms are one object
    focus = cache(lambda c: encode_basestring(print_program(c)))
    return automaton_json_text(aut, lambda n, i: _PROGRAM_NODE_ROW % (
        "true" if n.entering else "false", focus(n.loc.focus), i,
        encode_basestring(render_path(n.loc.path))))


def _member_ids(base: Automaton):
    """Sorted base node ids of the members of a closed node."""
    base_ids = _node_ids(base)
    return lambda n: sorted(base_ids[m] for m in n.members)


_CLOSED_NODE_ROW = '{\n      "id": %d,\n      "members": %s\n    }'


def closed_automaton_json_text(base: Automaton, closed: Automaton) -> str:
    """JSON text for a closed automaton; members are base node ids."""
    members = _member_ids(base)
    return automaton_json_text(closed, lambda n, i: _CLOSED_NODE_ROW % (
        i, "".join(_rows(list(map(str, members(n))), "      "))))


_GENERIC_NODE_ROW = '{\n      "id": %d,\n      "label": %s\n    }'


def generic_automaton_json_text(aut: Automaton) -> str:
    """JSON text for an automaton over plain (typically int) nodes."""
    return automaton_json_text(aut, lambda n, i: _GENERIC_NODE_ROW % (
        i, encode_basestring(render_node(n))))


def program_automaton_json(aut: Automaton) -> dict:
    return json.loads(program_automaton_json_text(aut))


def closed_automaton_json(base: Automaton, closed: Automaton) -> dict:
    return json.loads(closed_automaton_json_text(base, closed))


def _node_id(value, what, seen: dict):
    """A node id from JSON: hashable, and unequal to the ids of other types
    in seen (1, 1.0 and true; 0 and false), which would merge two nodes."""
    try:
        first = seen.setdefault(value, value)
    except TypeError:
        raise ValueError(f"{what} is not a valid node id: "
                         f"{brief_repr(value)}") from None
    if first is not value and first.__class__ is not value.__class__:
        raise ValueError(f"{what} {brief_repr(value)} equals the node id "
                         f"{brief_repr(first)} of another type")
    return value


def load_automaton(data: dict) -> Automaton:
    """Automaton from the generic JSON shape.

    Nodes may be bare values or objects with an "id"; edges reference
    those ids.  Raises ValueError on anything malformed.
    """
    if not isinstance(data, dict):
        raise ValueError("automaton JSON must be an object")
    raw_nodes = data.get("nodes")
    raw_edges = data.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ValueError("automaton JSON needs node and edge lists")
    if "init" not in data:
        raise ValueError("automaton JSON needs an init node")
    seen = {}
    nodes = []
    for item in raw_nodes:
        if isinstance(item, dict):
            if "id" not in item:
                raise ValueError(f"node object without id: {brief_repr(item)}")
            nodes.append(_node_id(item["id"], "node", seen))
        else:
            nodes.append(_node_id(item, "node", seen))
    built = {}
    edges = []
    for item in raw_edges:
        try:
            edges.append(Edge(_node_id(item["source"], "edge source", seen),
                              _action(item["action"], built),
                              _node_id(item["dest"], "edge destination", seen)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad edge: {brief_repr(item)}") from exc
    return Automaton(tuple(nodes), tuple(edges), _node_id(data["init"], "init", seen))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def automaton_dot(aut: Automaton, label=None) -> str:
    """DOT digraph; node names are positional and label(node, id) gives
    each node's label, by default its rendering.  The initial node is
    marked by a point-shaped source."""
    ids = _node_ids(aut)
    lines = ["digraph automaton {", "  rankdir=LR;", "  __init [shape=point];"]
    for n, i in ids.items():
        text = label(n, i) if label is not None else render_node(n)
        lines.append(f"  n{i} [label={_quote(text)}];")
    lines.append(f"  __init -> n{ids[aut.init]};")
    for e in aut.edges:
        lines.append(f"  n{ids[e.source]} -> n{ids[e.dest]}"
                     f" [label={_quote(render_action(e.action))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def closed_automaton_dot(base: Automaton, closed: Automaton) -> str:
    """DOT digraph of a closed automaton, labelled by member base ids."""
    members = _member_ids(base)
    return automaton_dot(closed, lambda n, i: "{" + ",".join(
        str(j) for j in members(n)) + "}")


def render_state(s: dict) -> str:
    return "{" + ", ".join(f"{k}={value_literal(s[k])}" for k in sorted(s)) + "}"


def _trace_rows(trace: Trace):
    yield 0, "init", trace.start
    for i, (cfg, rule) in enumerate(trace.steps, start=1):
        yield i, rule, cfg


_TRACE_ROW = ('{\n    "flag": %s,\n    "path": %s,\n    "rule": %s,'
              '\n    "state": %s,\n    "step": %d\n  }')


def _state_text(s: dict) -> str:
    """A state as a JSON object at the depth of a trace row's fields."""
    if not s:
        return "{}"
    return "{\n      " + ",\n      ".join(
        encode_basestring(k) + ": " + encode_basestring(value_literal(s[k]))
        for k in sorted(s)) + "\n    }"


def trace_json_text(trace: Trace) -> str:
    """JSON text of a trace, one row per configuration."""
    path_text = cache(lambda p: encode_basestring(render_path(p)))
    state = state_text = None
    rows = []
    for i, rule, cfg in _trace_rows(trace):
        cur = cfg.cursor
        # a step that assigns nothing keeps its state object
        if cfg.state is not state:
            state = cfg.state
            state_text = _state_text(state)
        rows.append(_TRACE_ROW % ("true" if cur.entering else "false",
                                  path_text(cur.loc.path),
                                  encode_basestring(rule), state_text, i))
    return "".join([*_rows(rows, ""), "\n"])


def trace_text(trace: Trace) -> str:
    """One line per configuration; locations and states render once."""
    where = cache(lambda loc: f"{print_program(loc.focus)} @ {render_path(loc.path)}")
    state = state_text = None
    lines = []
    for i, rule, cfg in _trace_rows(trace):
        if cfg.state is not state:
            state = cfg.state
            state_text = render_state(state)
        arrow = "↓" if cfg.cursor.entering else "↑"
        lines.append(f"{i}: {rule} | {arrow}{where(cfg.cursor.loc)} | {state_text}")
    return "\n".join(lines) + "\n"
