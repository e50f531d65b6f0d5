"""Serialization: automata and traces to JSON and DOT, and back for the
generic integer-noded automaton shape.

Node rendering lives here: render_node prints cursors, closures and plain
ids.  One writer, automaton_json_text, lays out every automaton JSON
shape; the shapes differ only in their node lists.  JSON node ids and DOT
node names are positions in the node list, so exports are deterministic
and re-import as the position-renamed automaton.

An automaton's edges are plain (source, action, dest) tuples, and a
compiled automaton's nodes are cursors, NamedTuples over interned
fields.  JSON text is written straight from the automaton or trace with
fixed row templates, in the bytes of json.dumps with indent=2, sorted
keys and non-ASCII kept, plus a newline.  Template keys are in sorted
order, strings go through the C string encoder, and ints and bools are
written directly.  Each edge action's text is put into a row template
once, so an edge formats only its two ids.  A compiled program's node
list is written from texts built once each: a subterm's escaped text
from its children's, a path's from its parent's.  They go into the
output's one join by reference, since two cursors share each focus and
path, so compiling costs time in the output's size, not a walk per
node.  Cursor labels, in `compile --numbered` and DOT, take the same
path texts.  The two dict-valued functions are those texts parsed back,
for the benchmark's own tests.
"""

import json
from functools import cache
from json.encoder import encode_basestring

from .ast import (Assign, Cond, Seq, Skip, While, brief_repr, is_valid_name,
                  parse_value_literal, print_expr, print_program,
                  value_literal)
from .automaton import SILENT, Automaton, render_action
from .semantics import Trace
from .tauclose import NodeSet
from .zipper import Cursor, path_texts, render_cursor, render_path


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


_ARROW = {True: " ↓", False: " ↑"}


def node_label(nodes):
    """render_node, for the given nodes.  A cursor's label is its path's
    text and its arrow, and path_texts builds each path's text once, from
    its parent's, rather than walking up the path for every cursor."""
    paths = path_texts(n.path for n in nodes if isinstance(n, Cursor))

    def label(n) -> str:
        if isinstance(n, Cursor):
            return paths[n.path] + _ARROW[n.entering]
        return render_node(n)
    return label


def _node_ids(aut: Automaton) -> dict:
    return {n: i for i, n in enumerate(dict.fromkeys(aut.nodes))}


# an edge's row: its action's text goes first, then its two ids
_EDGE_HEAD = '{\n      "action": '
_EDGE_IDS = ',\n      "dest": %d,\n      "source": %d\n    }'


def automaton_json_text(aut: Automaton, node_list) -> str:
    """The JSON text of every automaton: positional node ids, edges
    between ids and the initial node's id.  node_list(ids) gives the
    node list from the ids of the distinct nodes, as pieces of the text:
    brackets at two spaces, each node's fields at six."""
    ids = _node_ids(aut)
    # edges share a few actions: one row template each, with the action's
    # text in place, so an edge formats only its ids
    rows = {a: _EDGE_HEAD + _action_text(a).replace("%", "%%") + _EDGE_IDS
            for a in {a for _, a, _ in aut.edges}}
    edges = [rows[a] % (ids[dest], ids[source]) for source, a, dest in aut.edges]
    return "".join(['{\n  "edges": ', *_rows(edges, "  "),
                    ',\n  "init": %d,\n  "nodes": ' % ids[aut.init],
                    *node_list(ids), "\n}\n"])


def _escaped(s: str) -> str:
    """s JSON-escaped, without its quotes."""
    return encode_basestring(s)[1:-1]


def _statement_texts(foci) -> dict:
    """The escaped print_program text of each statement in foci and of
    its subterms, each built once from its children's texts, on an
    explicit stack.  Escaping maps each character on its own, so escaped
    parts concatenate to the escaped whole."""
    text = {}
    for root in foci:
        stack = [root]
        while stack:
            c = stack[-1]
            if c in text:
                stack.pop()
            elif isinstance(c, Skip):
                text[c] = "skip"
            elif isinstance(c, Assign):
                text[c] = f"{_escaped(c.name)} := {value_literal(c.value)}"
            elif isinstance(c, Seq):
                if c.first in text and c.second in text:
                    text[c] = f"{text[c.first]}; {text[c.second]}"
                else:
                    stack += (c.second, c.first)
            elif isinstance(c, Cond):
                if c.then_branch in text and c.else_branch in text:
                    text[c] = (f"if ({_escaped(print_expr(c.test))}) "
                               f"{{ {text[c.then_branch]} }} "
                               f"else {{ {text[c.else_branch]} }}")
                else:
                    stack += (c.else_branch, c.then_branch)
            elif isinstance(c, While):
                if c.body in text:
                    text[c] = (f"while ({_escaped(print_expr(c.test))}) "
                               f"{{ {text[c.body]} }}")
                else:
                    stack.append(c.body)
            else:
                raise TypeError(f"not a statement: {c!r}")
    return text


# a program node in five pieces: the head, which carries the separator
# from the node before, the focus text, the id, the path text, the tail
_PROGRAM_HEAD = ',\n    {\n      "flag": %s,\n      "focus": "'
_ENTERING_HEAD = _PROGRAM_HEAD % "true"
_LEAVING_HEAD = _PROGRAM_HEAD % "false"
_PROGRAM_ID = '",\n      "id": %d,\n      "path": "'
_PROGRAM_TAIL = '"\n    }'


def _program_node_list(ids: dict) -> list:
    """The node list of cursors, which holds at least the initial one.
    Two cursors share each focus and path, whose texts go into the one
    join of the output by reference."""
    focus = _statement_texts(n.focus for n in ids)
    path = path_texts(n.path for n in ids)
    pieces = []
    for n, i in ids.items():
        pieces += (_ENTERING_HEAD if n.entering else _LEAVING_HEAD,
                   focus[n.focus], _PROGRAM_ID % i, path[n.path], _PROGRAM_TAIL)
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n  ]")
    return pieces


def program_automaton_json_text(aut: Automaton) -> str:
    """JSON text for a cursor-noded automaton."""
    return automaton_json_text(aut, _program_node_list)


def _member_ids(base: Automaton):
    """Sorted base node ids of the members of a closed node."""
    base_ids = _node_ids(base)
    return lambda n: sorted(base_ids[m] for m in n.members)


# a closed node's row: its member ids go between these in one join
_CLOSED_HEAD = '{\n      "id": %d,\n      "members": [\n        '
_MEMBER_SEP = ",\n        "
_CLOSED_TAIL = '\n      ]\n    }'


def closed_automaton_json_text(base: Automaton, closed: Automaton) -> str:
    """JSON text for a closed automaton; members are base node ids, of
    which every closed node has at least one."""
    members = _member_ids(base)
    return automaton_json_text(closed, lambda ids: _rows([
        "".join((_CLOSED_HEAD % i, _MEMBER_SEP.join(map(str, members(n))),
                 _CLOSED_TAIL)) for n, i in ids.items()], "  "))


# a labelled node in pieces: the head, which carries the separator from
# the node before, the label's JSON string, the tail
_GENERIC_HEAD = ',\n    {\n      "id": %d,\n      "label": '
_GENERIC_TAIL = '\n    }'


def _generic_node_list(ids: dict) -> list:
    """The node list of labelled nodes.  A cursor's label goes in as its
    path text, shared by reference with the cursor of the other flag,
    and its arrow, neither of which needs escaping."""
    if not ids:
        return ["[]"]
    paths = path_texts(n.path for n in ids if isinstance(n, Cursor))
    pieces = []
    for n, i in ids.items():
        if isinstance(n, Cursor):
            pieces += (_GENERIC_HEAD % i + '"', paths[n.path],
                       _ARROW[n.entering] + '"' + _GENERIC_TAIL)
        else:
            pieces += (_GENERIC_HEAD % i, encode_basestring(render_node(n)),
                       _GENERIC_TAIL)
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n  ]")
    return pieces


def generic_automaton_json_text(aut: Automaton) -> str:
    """JSON text for an automaton over plain (typically int) nodes."""
    return automaton_json_text(aut, _generic_node_list)


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
            edges.append((_node_id(item["source"], "edge source", seen),
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
    if label is None:
        default = node_label(ids)
        label = lambda n, i: default(n)
    lines = ["digraph automaton {\n  rankdir=LR;\n  __init [shape=point];\n"]
    for n, i in ids.items():
        lines.append(f"  n{i} [label={_quote(label(n, i))}];\n")
    lines.append(f"  __init -> n{ids[aut.init]};\n")
    for s, a, d in aut.edges:
        lines.append(f"  n{ids[s]} -> n{ids[d]}"
                     f" [label={_quote(render_action(a))}];\n")
    lines.append("}\n")
    return "".join(lines)


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
                                  path_text(cur.path),
                                  encode_basestring(rule), state_text, i))
    return "".join([*_rows(rows, ""), "\n"])


def trace_text(trace: Trace) -> str:
    """One line per configuration; cursors and states render once."""
    where = cache(lambda cur: f"{'↓' if cur.entering else '↑'}"
                  f"{print_program(cur.focus)} @ {render_path(cur.path)}")
    state = state_text = None
    lines = []
    for i, rule, cfg in _trace_rows(trace):
        if cfg.state is not state:
            state = cfg.state
            state_text = render_state(state)
        lines.append(f"{i}: {rule} | {where(cfg.cursor)} | {state_text}")
    return "\n".join(lines) + "\n"
