"""Command line front end.

Subcommands: parse, run, compile, tauclose, and check (sim, closure,
regular, tausim).  Reports go to standard output, diagnostics to standard
error.  Exit codes: 0 success, 2 parse or input errors, 3 stuck execution,
4 step limit reached, 5 property violation.
"""

import argparse
import json
import sys

from . import formats
from .ast import ParseError, is_valid_name, parse_program, parse_value_literal
from .ast import print_program
from .automaton import (check_simulation, is_regular, program_automaton,
                        step_image_closed)
from .semantics import STEP_LIMIT, STUCK, TERMINATED, run_trace
from .tauclose import check_tau_simulation, close_automaton

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STUCK = 3
EXIT_STEP_LIMIT = 4
EXIT_VIOLATION = 5

_STATUS_EXIT = {TERMINATED: EXIT_OK, STUCK: EXIT_STUCK, STEP_LIMIT: EXIT_STEP_LIMIT}


def _read_program(path):
    with open(path, encoding="utf-8-sig") as fh:
        return parse_program(fh.read())


def _load_automaton_file(path):
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return formats.load_automaton(json.load(fh))
        except RecursionError:
            raise ValueError("automaton JSON is nested too deeply") from None


def _parse_state(text):
    """Parse 'x=true,y=null' into a state dict."""
    state = {}
    if not text:
        return state
    for part in text.split(","):
        part = part.strip()
        name, eq, lit = part.partition("=")
        name = name.strip()
        if not eq or not is_valid_name(name):
            raise ValueError(f"bad state entry {part!r}, expected name=literal")
        if name in state:
            raise ValueError(f"state binds {name!r} more than once")
        state[name] = parse_value_literal(lit.strip())
    return state


# encoding a large output in one write would hold a second copy of it
_CHUNK = 1 << 20


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(fh, text)
    else:
        _write(sys.stdout, text)


def _write(fh, text):
    for i in range(0, len(text), _CHUNK):
        fh.write(text[i:i + _CHUNK])


def cmd_parse(args):
    c = _read_program(args.file)
    if args.ast:
        print(repr(c))
    else:
        print(print_program(c))
    return EXIT_OK


def cmd_run(args):
    c = _read_program(args.file)
    state = _parse_state(args.state)
    trace = run_trace(c, state, args.max_steps)
    if args.trace_format == "json":
        sys.stdout.write(formats.trace_json_text(trace))
        print(f"status: {trace.status}", file=sys.stderr)
    else:
        sys.stdout.write(formats.trace_text(trace))
        line = f"status: {trace.status}"
        if trace.stuck_reason:
            line += f" ({trace.stuck_reason})"
        print(line)
    return _STATUS_EXIT[trace.status]


def cmd_compile(args):
    aut = program_automaton(_read_program(args.file))
    if args.format == "dot":
        label = None
        if args.numbered:
            node_label = formats.node_label(aut.nodes)
            label = lambda n, i: f"{i}: {node_label(n)}"
        text = formats.automaton_dot(aut, label)
    elif args.numbered:
        text = formats.generic_automaton_json_text(aut)
    else:
        text = formats.program_automaton_json_text(aut)
    _emit(text, args.output)
    return EXIT_OK


def cmd_tauclose(args):
    base = _input_automaton(args)
    if not is_regular(base):
        print("warning: input automaton is not regular "
              "(initial node or an edge endpoint is outside the node list)",
              file=sys.stderr)
    closed = close_automaton(base)
    if args.format == "dot":
        text = formats.closed_automaton_dot(base, closed)
    else:
        text = formats.closed_automaton_json_text(base, closed)
    _emit(text, args.output)
    return EXIT_OK


def cmd_check(args):
    if args.kind == "sim":
        c = _read_program(args.file)
        report = check_simulation(c, _parse_state(args.state), args.max_steps)
        print(f"sim: {report.steps_checked} steps matched, trace status "
              f"{report.status}")
        if not report.ok:
            i, cfg, nxt = report.violation
            print(f"violation at step {i}: no edge from "
                  f"{formats.render_node(cfg.cursor)} to "
                  f"{formats.render_node(nxt.cursor)} with matching action")
            return EXIT_VIOLATION
        return EXIT_OK
    if args.kind == "closure":
        aut = program_automaton(_read_program(args.file))
        nodes_ok, edges_ok = step_image_closed(aut)
        for name, value in (("nodes closed", nodes_ok), ("edges closed", edges_ok),
                            ("step image closed", nodes_ok and edges_ok)):
            print(f"{name}: {'ok' if value else 'FAIL'}")
        return EXIT_OK if nodes_ok and edges_ok else EXIT_VIOLATION
    if args.kind == "regular":
        aut = _input_automaton(args)
        ok = is_regular(aut)
        print(f"regular: {'ok' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_VIOLATION
    # tausim
    aut = _input_automaton(args)
    if not is_regular(aut):
        print("warning: input automaton is not regular", file=sys.stderr)
    report = check_tau_simulation(aut)
    print(f"tausim: {report.checked_pairs} related pairs checked, "
          f"{'ok' if report.ok else 'FAIL'}")
    if not report.ok:
        s1, s2, edge, reason = report.violation
        print(f"violation: {reason}"
              + (f" (node {formats.render_node(s1)} in {formats.render_node(s2)},"
                 f" edge to {formats.render_node(edge[2])})" if edge else ""))
        return EXIT_VIOLATION
    return EXIT_OK


def _input_automaton(args):
    if args.automaton is not None and args.file is not None:
        args.parser.error("give a program file or --automaton, not both")
    if args.automaton is not None:
        return _load_automaton_file(args.automaton)
    if args.file is None:
        args.parser.error("need a program file or --automaton")
    return program_automaton(_read_program(args.file))


def _add_input(p):
    """A program file or --automaton, for the commands that read either."""
    p.add_argument("file", nargs="?")
    p.add_argument("--automaton", help="automaton JSON file instead of a program")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zippersem",
        description="Explore a tiny imperative language: run its small-step "
                    "semantics, compile programs to program-point automata, "
                    "remove silent transitions, and check the expected "
                    "properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a program and print it back")
    p.add_argument("file")
    p.add_argument("--ast", action="store_true",
                   help="print the syntax tree instead of concrete syntax")
    p.set_defaults(func=cmd_parse, parser=p)

    p = sub.add_parser("run", help="run a program and print the trace")
    p.add_argument("file")
    p.add_argument("--state", default="",
                   help="initial state, e.g. x=true,y=null")
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--trace-format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_run, parser=p)

    p = sub.add_parser("compile", help="compile a program to its automaton")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--numbered", action="store_true",
                   help='JSON nodes carry {"id", "label"}; DOT labels '
                        'read "id: rendering"')
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile, parser=p)

    p = sub.add_parser("tauclose",
                       help="close a program automaton or a JSON automaton "
                            "over silent transitions")
    _add_input(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tauclose, parser=p)

    p = sub.add_parser("check", help="run one of the property checkers")
    # one parser per kind, each with only the options it reads
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("sim")
    k.add_argument("file")
    k.add_argument("--state", default="")
    k.add_argument("--max-steps", type=int, default=10000)
    kinds.add_parser("closure").add_argument("file")
    _add_input(kinds.add_parser("regular"))
    _add_input(kinds.add_parser("tausim"))
    for kind, k in kinds.choices.items():
        # kind too: a leaf parsed on its own sets no subparser dest
        k.set_defaults(func=cmd_check, parser=k, kind=kind)

    leaves = {(name,): leaf for name, leaf in sub.choices.items()
              if name != "check"}
    leaves.update((("check", kind), k) for kind, k in kinds.choices.items())
    return parser, leaves


_parser = _leaves = None


def main(argv=None) -> int:
    # Built on the first call, not at import, and reused: parse_known_args
    # makes a fresh Namespace and no default is ever mutated, so calls share
    # no state.  A command line that names a command is parsed by that
    # command's own parser, the leaf, in one argparse level; the root parser
    # sees only lines that name none (help, unknown commands, a leading --).
    global _parser, _leaves
    if _parser is None:
        _parser, _leaves = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2] if argv[:1] == ["check"] else argv[:1])
    leaf = _leaves.get(words)
    if leaf is None:
        args, extra = _parser.parse_known_args(argv)
    else:
        args, extra = leaf.parse_known_args(argv[len(words):])
    # errors go through the subcommand's parser, whose usage names it
    if extra:
        # an unknown option before an optional file lets argparse bind the
        # option's value to the file and leave the file over: name options only
        named = [a for a in extra if a.startswith("-")] or extra
        args.parser.error(f"unrecognized arguments: {' '.join(named)}")
    if getattr(args, "max_steps", 0) < 0:
        args.parser.error("--max-steps must not be negative")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console():
    sys.exit(main())
