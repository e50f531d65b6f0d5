"""Serialization: automata and traces to JSON and DOT, and back for the
generic integer-noded automaton shape.

Node rendering lives here: render_node prints a node, and _labelled the
nodes of `compile --numbered` JSON and of DOT.  One writer lays out every
automaton JSON shape, automaton_json_text, and one every DOT graph,
automaton_dot; the shapes differ only in their node lists.  JSON node
ids and DOT node names are positions in the node list, so exports are
deterministic and re-import as the position-renamed automaton.

An automaton's edges are plain (source, action, dest) tuples, and a
compiled automaton's nodes are cursors, NamedTuples over interned
fields.  JSON text is written straight from the automaton or trace with
fixed row templates, in the bytes of json.dumps with indent=2, sorted
keys and non-ASCII kept, plus a newline.  Template keys are in sorted
order, strings go through the C string encoder, and ints and bools are
written directly.  Every item of a JSON list starts with its own comma
and line break, and _list frames the list, so a whole text is one join,
as a DOT text is.  Each edge action's text, JSON or DOT, is put into a
line template once, so an edge formats only its two ids.  A compiled
program's node list is written from texts built once each: a subterm's
escaped text by print_program from its children's, a path's from its
parent's.  They go into the output's one join by reference, since two
cursors share each focus and path, so compiling costs time in the
output's size, not a walk per node; labels and trace rows take the same
path texts, and text trace rows one text per cursor, by reference.
"""

import json
from functools import partial
from json.encoder import encode_basestring

from .ast import (Assign, brief_repr, is_valid_name, parse_value_literal,
                  print_program, value_literal)
from .automaton import SILENT, Automaton, render_action
from .semantics import Trace
from .tauclose import NodeSet
from .zipper import Cursor, path_texts, render_path


def _list(pieces: list, indent: str) -> list:
    """A JSON list, as pieces for the one join of a whole text, from its
    items' pieces, where each item's first piece starts with its comma
    and line break: the brackets sit at indent."""
    if not pieces:
        return ["[]"]
    pieces[0] = "[" + pieces[0][1:]
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


_ARROW = {True: " ↓", False: " ↑"}


def render_node(n) -> str:
    if isinstance(n, Cursor):
        return render_path(n.path) + _ARROW[n.entering]
    if isinstance(n, NodeSet):
        return "{" + ", ".join(render_node(m) for m in n.members) + "}"
    return str(n)


def _node_ids(aut: Automaton) -> dict:
    return {n: i for i, n in enumerate(dict.fromkeys(aut.nodes))}


# an edge's row: its separator and action's text go first, then its ids
_EDGE_HEAD = ',\n    {\n      "action": '
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
    return "".join(['{\n  "edges": ', *_list(edges, "  "),
                    ',\n  "init": %d,\n  "nodes": ' % ids[aut.init],
                    *node_list(ids), "\n}\n"])


def _escaped(s: str) -> str:
    """s JSON-escaped, without its quotes."""
    return encode_basestring(s)[1:-1]


# a program node in five pieces: the head, which carries the separator
# from the node before, the focus text, the id, the path text, the tail
_PROGRAM_HEAD = ',\n    {\n      "flag": %s,\n      "focus": "'
_ENTERING_HEAD = _PROGRAM_HEAD % "true"
_LEAVING_HEAD = _PROGRAM_HEAD % "false"
_PROGRAM_ID = '",\n      "id": %d,\n      "path": "'
_PROGRAM_TAIL = '"\n    }'


def _program_node_list(ids: dict) -> list:
    """The node list of cursors, which are in pre-order, so their foci in
    reverse print children first.  Two cursors share each focus and path,
    whose texts go into the one join of the output by reference."""
    focus = {}
    for c in dict.fromkeys(n.focus for n in reversed(ids)):
        focus[c] = print_program(c, focus, _escaped)
    path = path_texts(n.path for n in ids)
    pieces = []
    for n, i in ids.items():
        pieces += (_ENTERING_HEAD if n.entering else _LEAVING_HEAD,
                   focus[n.focus], _PROGRAM_ID % i, path[n.path], _PROGRAM_TAIL)
    return _list(pieces, "  ")


def program_automaton_json_text(aut: Automaton) -> str:
    """JSON text for a cursor-noded automaton."""
    return automaton_json_text(aut, _program_node_list)


def _member_ids(base: Automaton):
    """Sorted base node ids of the members of a closed node."""
    base_ids = _node_ids(base)
    return lambda n: sorted(base_ids[m] for m in n.members)


# a closed node's row: its member ids go between these in one join
_CLOSED_HEAD = ',\n    {\n      "id": %d,\n      "members": [\n        '
_MEMBER_SEP = ",\n        "
_CLOSED_TAIL = '\n      ]\n    }'


def closed_automaton_json_text(base: Automaton, closed: Automaton) -> str:
    """JSON text for a closed automaton; members are base node ids, of
    which every closed node has at least one."""
    members = _member_ids(base)
    return automaton_json_text(closed, lambda ids: _list([
        "".join((_CLOSED_HEAD % i, _MEMBER_SEP.join(map(str, members(n))),
                 _CLOSED_TAIL)) for n, i in ids.items()], "  "))


# a labelled JSON node's head, which carries the separator, and its tail
_GENERIC_HEAD = ',\n    {\n      "id": %d,\n      "label": '
_GENERIC_TAIL = '\n    }'


def _labelled(ids: dict, head: str, tail: str, quote, numbered=False) -> list:
    """Pieces of labelled nodes: head % id, the label, led by "id: " if
    numbered, and tail.  A cursor's label is its path text, shared by
    reference with the cursor of the other flag, and its arrow, which
    need no quoting; any other node's is quote(render_node(n))."""
    paths = path_texts(n.path for n in ids if isinstance(n, Cursor))
    pieces = []
    for n, i in ids.items():
        number = "%d: " % i if numbered else ""
        if isinstance(n, Cursor):
            pieces += (head % i + '"' + number, paths[n.path],
                       _ARROW[n.entering] + '"' + tail)
        else:
            pieces += (head % i, quote(number + render_node(n)), tail)
    return pieces


def generic_automaton_json_text(aut: Automaton) -> str:
    """JSON text for an automaton over plain (typically int) nodes."""
    return automaton_json_text(aut, lambda ids: _list(
        _labelled(ids, _GENERIC_HEAD, _GENERIC_TAIL, encode_basestring), "  "))


def program_automaton_json(aut: Automaton) -> dict:
    """The text parsed back; only the benchmark's own test reads it."""
    return json.loads(program_automaton_json_text(aut))


def closed_automaton_json(base: Automaton, closed: Automaton) -> dict:
    """The text parsed back; only the benchmark's own test reads it."""
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


# a DOT node's line: its quoted label goes between these
_DOT_NODE = "  n%d [label="
_DOT_END = "];\n"
_dot_labelled = partial(_labelled, head=_DOT_NODE, tail=_DOT_END,
                        quote=_quote)


def automaton_dot(aut: Automaton, node_list=None) -> str:
    """DOT digraph; node names are positions in the node list, and
    node_list(ids) gives the node lines from the ids of the distinct
    nodes, as pieces of the text: by default _labelled's, each node's
    rendering.  The initial node is marked by a point-shaped source."""
    ids = _node_ids(aut)
    # one line template per action, as for JSON edge rows
    rows = {a: "  n%d -> n%d [label=" + _quote(render_action(a)).replace(
        "%", "%%") + _DOT_END for a in {a for _, a, _ in aut.edges}}
    return "".join([
        "digraph automaton {\n  rankdir=LR;\n  __init [shape=point];\n",
        *(node_list or _dot_labelled)(ids),
        "  __init -> n%d;\n" % ids[aut.init],
        *[rows[a] % (ids[s], ids[d]) for s, a, d in aut.edges], "}\n"])


def numbered_automaton_dot(aut: Automaton) -> str:
    """automaton_dot's digraph, with labels that read "id: rendering"."""
    return automaton_dot(aut, partial(_dot_labelled, numbered=True))


def closed_automaton_dot(base: Automaton, closed: Automaton) -> str:
    """DOT digraph of a closed automaton, labelled by member base ids."""
    members = _member_ids(base)
    line = _DOT_NODE + '"{%s}"' + _DOT_END
    return automaton_dot(closed, lambda ids: [
        line % (i, ",".join(map(str, members(n)))) for n, i in ids.items()])


def render_state(s: dict) -> str:
    return "{" + ", ".join(f"{k}={value_literal(s[k])}" for k in sorted(s)) + "}"


# a trace row's head, one per flag, ends in the path's opening quote and
# its tail starts with the closing one: path texts need no escaping
_TRACE_HEAD = {f: ',\n  {\n    "flag": %s,\n    "path": "' % json.dumps(f)
               for f in (True, False)}
_TRACE_TAIL = '",\n    "rule": %s,\n    "state": %s,\n    "step": %d\n  }'


def _state_text(s: dict) -> str:
    """A state as a JSON object at the depth of a trace row's fields."""
    if not s:
        return "{}"
    return "{\n      " + ",\n      ".join(
        encode_basestring(k) + ": " + encode_basestring(value_literal(s[k]))
        for k in sorted(s)) + "\n    }"


def trace_json_text(trace: Trace) -> str:
    """JSON text of a trace, one row per configuration."""
    rows = [(trace.start, "init"), *trace.steps]
    path = path_texts(cfg.cursor.path for cfg, _ in rows)
    state = state_text = None
    pieces = []
    for i, (cfg, rule) in enumerate(rows):
        cur = cfg.cursor
        # a step that assigns nothing keeps its state object
        if cfg.state is not state:
            state = cfg.state
            state_text = _state_text(state)
        pieces += (_TRACE_HEAD[cur.entering], path[cur.path],
                   _TRACE_TAIL % (encode_basestring(rule), state_text, i))
    return "".join([*_list(pieces, ""), "\n"])


def trace_text(trace: Trace) -> str:
    """One line per configuration, joined from each distinct cursor's text,
    built once from its focus's and path's texts as compile builds them."""
    rows = [(trace.start, "init"), *trace.steps]
    curs = dict.fromkeys(cfg.cursor for cfg, _ in rows)
    focus = {}
    for c in reversed(dict.fromkeys(cur.focus for cur in curs)):
        focus[c] = print_program(c, focus)
    path = path_texts(cur.path for cur in curs)
    where = {cur: f"{_ARROW[cur.entering][1:]}{focus[cur.focus]} @ "
                  f"{path[cur.path]}" for cur in curs}
    state = tail = None
    pieces = []
    for i, (cfg, rule) in enumerate(rows):
        if cfg.state is not state:
            state = cfg.state
            tail = f" | {render_state(state)}\n"
        pieces += (f"{i}: {rule} | ", where[cfg.cursor], tail)
    return "".join(pieces)
