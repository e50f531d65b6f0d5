"""Serialization: automata and traces to JSON and DOT, and back for the
generic integer-noded automaton shape.

Node rendering lives here: render_node prints cursors, closures and plain
ids.  One writer builds every automaton JSON shape; the shapes differ only
in the fields each node carries besides its id.  JSON node ids and DOT
node names are positions in the node list, so exports are deterministic
and re-import as the position-renamed automaton.

One text writer, to_json_text, prints every JSON value, traces and all
automaton shapes alike.  It writes the bytes of json.dumps with indent=2,
sorted keys and non-ASCII kept, without the standard library's
pure-Python indenting encoder, and joins lists of plain ints at C speed.
"""

from json.encoder import encode_basestring

from .ast import (Assign, brief_repr, is_valid_name, parse_value_literal,
                  print_program, value_literal)
from .automaton import SILENT, Automaton, Edge, render_action
from .semantics import Trace
from .tauclose import NodeSet
from .zipper import Cursor, render_cursor, render_path


_INF = float("inf")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _leaf_text(o) -> str:
    """JSON text of a value that is not a list, tuple or dict."""
    if isinstance(o, str):
        return encode_basestring(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


# leaf writers by exact type; the rest, subclasses included, go through
# the isinstance tests of _leaf_text, in json.dumps's order
_LEAF = {str: encode_basestring, int: int.__repr__, float: _float_text,
         bool: _leaf_text, type(None): _leaf_text}


def _key_text(k) -> str:
    """A dict key as json.dumps writes it, with the ': ' after it."""
    if isinstance(k, str):
        return encode_basestring(k) + ": "
    if k is None or isinstance(k, (int, float)):
        return encode_basestring(_leaf_text(k)) + ": "
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def to_json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False) plus a newline, byte for byte.

    With indent set, the standard library runs its pure-Python encoder,
    one generator per container.  This writer appends each container's
    pieces to one list, writes a leaf inside its container's loop, and
    writes a list of plain ints with one join.  Dict items are sorted by
    key, which orders them as json.dumps's sorted items do: keys of one
    dict are never equal.
    """
    out = []
    append = out.append
    leaf_of = _LEAF.get

    def write(o, nl):
        # nl is a newline plus o's indent
        if isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = nl + "  "
            if all(type(x) is int for x in o):
                append("[" + inner + ("," + inner).join(map(int.__repr__, o))
                       + nl + "]")
                return
            comma = "," + inner
            sep = "[" + inner
            for x in o:
                leaf = leaf_of(type(x))
                if leaf is not None:
                    append(sep + leaf(x))
                else:
                    append(sep)
                    write(x, inner)
                sep = comma
            append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            comma = "," + inner
            sep = "{" + inner
            for k in sorted(o):
                v = o[k]
                leaf = leaf_of(type(v))
                if leaf is not None:
                    append(sep + _key_text(k) + leaf(v))
                else:
                    append(sep + _key_text(k))
                    write(v, inner)
                sep = comma
            append(nl + "}")
        else:
            append(_leaf_text(o))

    write(obj, "\n")
    append("\n")
    return "".join(out)


def action_to_json(a) -> dict:
    if a is SILENT:
        return {"kind": "none"}
    if isinstance(a, Assign):
        return {"kind": "assign", "var": a.name, "val": value_literal(a.value)}
    raise TypeError(f"not an action: {a!r}")


def action_from_json(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "none":
        return SILENT
    var = obj.get("var") if kind == "assign" else None
    if isinstance(var, str) and is_valid_name(var):
        return Assign(var, parse_value_literal(obj["val"]))
    raise ValueError(f"bad action: {brief_repr(obj)}")


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


def _automaton_json(aut: Automaton, node_fields) -> dict:
    """The JSON shape of every automaton: positional node ids, edges
    between ids and the initial node's id.  node_fields(n) gives the
    fields of node n besides its id."""
    ids = _node_ids(aut)
    nodes = [{"id": i, **node_fields(n)} for n, i in ids.items()]
    edges = [{"source": ids[e.source], "action": action_to_json(e.action),
              "dest": ids[e.dest]}
             for e in aut.edges]
    return {"nodes": nodes, "edges": edges, "init": ids[aut.init]}


def program_automaton_json(aut: Automaton) -> dict:
    """JSON shape for a cursor-noded automaton."""
    return _automaton_json(aut, lambda n: {
        "path": render_path(n.loc.path), "flag": n.entering,
        "focus": print_program(n.loc.focus)})


def _member_ids(base: Automaton):
    """Sorted base node ids of the members of a closed node."""
    base_ids = _node_ids(base)
    return lambda n: sorted(base_ids[m] for m in n.members)


def closed_automaton_json(base: Automaton, closed: Automaton) -> dict:
    """JSON shape for a closed automaton; members are base node ids."""
    members = _member_ids(base)
    return _automaton_json(closed, lambda n: {"members": members(n)})


def generic_automaton_json(aut: Automaton) -> dict:
    """JSON shape for an automaton over plain (typically int) nodes."""
    return _automaton_json(aut, lambda n: {"label": render_node(n)})


def _node_id(value, what):
    """A node id from JSON; ids are compared and hashed, so lists and
    objects are refused."""
    try:
        hash(value)
    except TypeError:
        raise ValueError(f"{what} is not a valid node id: "
                         f"{brief_repr(value)}") from None
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
    nodes = []
    for item in raw_nodes:
        if isinstance(item, dict):
            if "id" not in item:
                raise ValueError(f"node object without id: {brief_repr(item)}")
            nodes.append(_node_id(item["id"], "node"))
        else:
            nodes.append(_node_id(item, "node"))
    edges = []
    for item in raw_edges:
        try:
            edges.append(Edge(_node_id(item["source"], "edge source"),
                              action_from_json(item["action"]),
                              _node_id(item["dest"], "edge destination")))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad edge: {brief_repr(item)}") from exc
    return Automaton(tuple(nodes), tuple(edges), _node_id(data["init"], "init"))


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


def state_json(s: dict) -> dict:
    return {k: value_literal(s[k]) for k in sorted(s)}


def render_state(s: dict) -> str:
    return "{" + ", ".join(f"{k}={value_literal(s[k])}" for k in sorted(s)) + "}"


def _trace_rows(trace: Trace):
    yield 0, "init", trace.start
    for i, (cfg, rule) in enumerate(trace.steps, start=1):
        yield i, rule, cfg


def trace_json(trace: Trace) -> list:
    return [{"step": i, "rule": rule,
             "path": render_path(cfg.cursor.loc.path),
             "flag": cfg.cursor.entering,
             "state": state_json(cfg.state)}
            for i, rule, cfg in _trace_rows(trace)]


def trace_text(trace: Trace) -> str:
    lines = []
    for i, rule, cfg in _trace_rows(trace):
        arrow = "↓" if cfg.cursor.entering else "↑"
        lines.append(f"{i}: {rule} | {arrow}{print_program(cfg.cursor.loc.focus)}"
                     f" @ {render_path(cfg.cursor.loc.path)}"
                     f" | {render_state(cfg.state)}")
    return "\n".join(lines) + "\n"
