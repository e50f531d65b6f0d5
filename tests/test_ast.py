"""Parser, printer, subterm counting and hash-consed nodes."""

import gc
import random

import pytest

from oracles import subterm_count
from randgen import random_program
from zippersem.ast import (FALSE, NULL, TRUE, Assign, Bool, Cond, Expr,
                           HashConsed, Lit, Null, ParseError, Seq, Skip, Stmt,
                           Value, Var, While, parse_program,
                           parse_value_literal, print_program, value_literal)
from zippersem.automaton import check_simulation, program_automaton
from zippersem.semantics import run_trace
from zippersem.tauclose import NodeSet, close_automaton
from zippersem.zipper import (TOP, CondElse, CondThen, Cursor, Path, SeqLeft,
                              SeqRight, Top, WhileBody)

LOOP_SRC = "while (e) { x := true; y := false }"


def test_values_are_shared_constants():
    assert Bool(True) is not None and TRUE == Bool(True)
    assert FALSE == Bool(False) and NULL == Null()
    assert TRUE != FALSE and TRUE != NULL


def test_value_literals():
    assert value_literal(TRUE) == "true"
    assert value_literal(FALSE) == "false"
    assert value_literal(NULL) == "null"
    for text in ("true", "false", "null"):
        assert value_literal(parse_value_literal(text)) == text
    with pytest.raises(ValueError):
        parse_value_literal("maybe")


def test_parse_skip():
    assert parse_program("skip") == Skip()


def test_parse_assign_takes_literals_only():
    assert parse_program("x := true") == Assign("x", TRUE)
    assert parse_program("x := null") == Assign("x", NULL)
    with pytest.raises(ParseError):
        parse_program("x := y")


def test_parse_seq_right_associates():
    got = parse_program("x := true; y := false; skip")
    assert got == Seq(Assign("x", TRUE), Seq(Assign("y", FALSE), Skip()))


def test_parse_loop():
    got = parse_program(LOOP_SRC)
    assert got == While(Var("e"), Seq(Assign("x", TRUE), Assign("y", FALSE)))


def test_parse_cond():
    got = parse_program("if (b) { skip } else { a := false }")
    assert got == Cond(Var("b"), Skip(), Assign("a", FALSE))


def test_parse_cond_test_literal():
    got = parse_program("if (true) { skip } else { skip }")
    assert got == Cond(Lit(TRUE), Skip(), Skip())


def test_parse_comments_and_whitespace():
    src = "// header\n  x := true;  // set x\n  skip\n"
    assert parse_program(src) == Seq(Assign("x", TRUE), Skip())


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_program("x :=\n  %")
    assert exc.value.line == 2
    assert exc.value.column == 3
    assert "line 2, column 3" in str(exc.value)


@pytest.mark.parametrize("text, message, line, column", [
    ("skip;\r\nx := y",
     "expected a literal (true, false or null), found 'y'", 2, 6),
    ("skip; // c := %\n  := true", "expected a statement, found ':='", 2, 3),
    ("\tx := y", "expected a literal (true, false or null), found 'y'", 1, 7),
    ("while (a) {\n  skip // done\n  ", "expected '}', found end of input",
     3, 3),
    ("x := true;\n  é", "unexpected character 'é'", 2, 3),
    # one row per kind of offending token
    ("skip skip", "expected end of input, found 'skip'", 1, 6),
    ("while x", "expected '(', found 'x'", 1, 7),
    ("while (if) { skip }", "expected an expression, found 'if'", 1, 8),
    ("true := false", "expected a statement, found 'true'", 1, 1),
    ("x := ;", "expected a literal (true, false or null), found ';'", 1, 6),
    ("if (a) { skip }", "expected 'else', found end of input", 1, 16),
    ("x := true; }", "expected a statement, found '}'", 1, 12),
], ids=["crlf", "after-comment", "tab", "end-of-input", "non-ascii",
        "trailing-input", "identifier", "keyword-as-expression",
        "literal-as-statement", "symbol-as-literal", "missing-else",
        "stray-brace"])
def test_parse_error_positions(text, message, line, column):
    # lines end at '\n' only; a column counts characters, so a tab is one
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == \
        (message, line, column)


def test_parse_error_on_missing_else():
    with pytest.raises(ParseError) as exc:
        parse_program("if (b) { skip }")
    assert exc.value.line == 1


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse_program("skip skip")


def test_parse_error_on_empty_input():
    with pytest.raises(ParseError):
        parse_program("   // only a comment\n")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_program("true := false")
    with pytest.raises(ParseError):
        parse_program("while (if) { skip }")
    # keywords are lower case, and a name may contain '_'
    assert parse_program("If := true; SKIP := null; True := false") == \
        Seq(Assign("If", TRUE),
            Seq(Assign("SKIP", NULL), Assign("True", FALSE)))
    assert parse_program("while (While) { x_1 := true }") == \
        While(Var("While"), Assign("x_1", TRUE))


def test_mandatory_braces():
    with pytest.raises(ParseError):
        parse_program("while (b) skip")


def test_print_examples():
    assert print_program(Skip()) == "skip"
    assert print_program(Assign("x", NULL)) == "x := null"
    assert print_program(Cond(Var("b"), Skip(), Skip())) == \
        "if (b) { skip } else { skip }"
    assert print_program(While(Lit(TRUE), Skip())) == "while (true) { skip }"
    assert print_program(parse_program(LOOP_SRC)) == LOOP_SRC


def test_print_flattens_left_nested_seq():
    # no source form distinguishes association, so the printer is total
    # but only right-nested chains survive a round trip unchanged
    left = Seq(Seq(Skip(), Skip()), Skip())
    assert print_program(left) == "skip; skip; skip"
    assert parse_program(print_program(left)) == Seq(Skip(), Seq(Skip(), Skip()))


def test_subterm_count():
    assert subterm_count(Skip()) == 1
    assert subterm_count(Assign("x", TRUE)) == 1
    assert subterm_count(Seq(Skip(), Skip())) == 3
    assert subterm_count(parse_program(LOOP_SRC)) == 4


def test_equal_nodes_are_one_object():
    a, b = Assign("x", TRUE), Skip()
    assert Seq(a, b) is Seq(a, b)
    assert Seq(a, b) is not Seq(b, a)
    assert parse_program("x := true; skip") is Seq(a, b)
    # equality and hashing are object identity, O(1) at any depth
    assert Seq.__eq__ is object.__eq__ and Seq.__hash__ is object.__hash__


def test_repr_is_the_dataclass_repr():
    assert repr(Cond(Var("b"), Seq(Skip(), Assign("x", NULL)),
                     While(Lit(TRUE), Skip()))) == (
        "Cond(test=Var(name='b'), then_branch=Seq(first=Skip(), "
        "second=Assign(name='x', value=Null())), else_branch=While("
        "test=Lit(value=Bool(value=True)), body=Skip()))")
    assert repr(Cursor(Skip(), SeqLeft(TOP, Skip()), True)) == (
        "Cursor(focus=Skip(), path=SeqLeft(up=Top(), after=Skip()), "
        "entering=True)")
    assert repr(NodeSet((1, "a"))) == "NodeSet(members=(1, 'a'))"


def test_nodes_are_immutable_and_take_every_field():
    fields = [(Var("x"), "name"), (Cursor(Skip(), TOP, True), "path"),
              (NodeSet((1, 2)), "members")]
    for node, field in fields:
        value = getattr(node, field)
        with pytest.raises(AttributeError):
            setattr(node, field, value)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert getattr(node, field) is value
    for make in (Var, lambda: Var("x", "y"), lambda: Cursor(Skip(), TOP),
                 lambda: NodeSet((1,), (2,)), lambda: Skip(1)):
        with pytest.raises(TypeError):
            make()


def test_nodes_hold_their_fields_only_and_the_unions_name_their_classes():
    x = Var("x")
    body = Assign("x", TRUE)
    unions = {
        Value: [TRUE, NULL],
        Expr: [Lit(FALSE), x],
        Stmt: [Skip(), body, Seq(body, body), Cond(x, body, body),
               While(x, body)],
        Path: [TOP, SeqLeft(TOP, body), SeqRight(body, TOP),
               CondThen(x, TOP, body), CondElse(x, body, TOP),
               WhileBody(x, TOP)],
    }
    interned = [n for members in unions.values() for n in members]
    interned.append(Cursor(body, TOP, True))
    nodes = interned + [NodeSet((1, 2))]
    for n in nodes:
        assert not hasattr(n, "__dict__"), type(n).__name__
    # one node of every interned class; node sets are not interned
    assert {type(n) for n in interned} == set(HashConsed.__subclasses__())
    assert not isinstance(nodes[-1], HashConsed)
    for union, members in unions.items():
        for n in nodes:
            assert isinstance(n, union) == (n in members), (union, n)


def test_dropped_programs_leave_no_live_nodes():
    # a compiled 1000-statement program and its trace, twice, as an
    # in-process loop of jobs would; then a closure
    src = "; ".join(f"v{i} := true" for i in range(999)) + \
        "; while (v0) { v0 := false }"
    gc.collect()
    before = len(HashConsed._live)
    for _ in range(2):
        c = parse_program(src)
        aut = program_automaton(c)
        trace = run_trace(c, {}, 5000)
        report = check_simulation(c, {}, 5000)
        assert report.ok and len(aut.nodes) == 4000
        assert len(HashConsed._live) > before + 4000
        del c, aut, trace, report
        gc.collect()
        assert len(HashConsed._live) == before
    closed = close_automaton(program_automaton(parse_program("x := true")))
    assert len(closed.nodes) == 2 and len(HashConsed._live) > before
    del closed
    gc.collect()
    assert len(HashConsed._live) == before


def test_failed_parse_frees_its_nodes():
    # the error carries no node: once it is dropped, reference counting
    # alone frees every node the parse built before it failed
    src = "; ".join(f"v{i} := true" for i in range(999)) + \
        "; while (v0) { v0 := false"
    gc.collect()
    gc.disable()
    try:
        before = len(HashConsed._live)
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert exc.value.message == "expected '}', found end of input"
        del exc
        assert len(HashConsed._live) == before
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_interning_table_drops_entries_as_nodes_die():
    gc.collect()
    gc.disable()  # reference counting alone must empty the table
    try:
        before = len(HashConsed._live)
        nodes = [Var(f"fresh{i}") for i in range(10000)]
        assert len(HashConsed._live) == before + 10000
        del nodes
        assert len(HashConsed._live) == before
        # an equal node built after the old one died is interned again
        again = Var("fresh7")
        assert Var("fresh7") is again
        assert len(HashConsed._live) == before + 1
        # a dead node's reference must not remove a newer entry for its key
        old = Var("stale")
        stale = HashConsed._live.pop((Var, "stale"))
        new = Var("stale")
        assert new is not old
        del old
        assert stale() is None
        assert HashConsed._live[(Var, "stale")]() is new
        assert Var("stale") is new
        del again, new
        assert len(HashConsed._live) == before
    finally:
        gc.enable()


def test_roundtrip_on_random_derivable_programs():
    rng = random.Random(101)
    for _ in range(300):
        c = random_program(rng, derivable=True)
        assert parse_program(print_program(c)) == c


def test_print_parse_print_is_stable_on_any_tree():
    # printing is idempotent through a parse even when the tree itself
    # is not grammar-derivable
    rng = random.Random(102)
    for _ in range(300):
        c = random_program(rng)
        text = print_program(c)
        assert print_program(parse_program(text)) == text
