"""Fuzz gate for the parser.

Random strings over the grammar's tokens and a few junk characters, and
near-miss programs (a random program's text with one token dropped,
duplicated or swapped with its neighbour), go through every command that
reads a program.  Each must end in a documented exit code.  Every text that
parses must print with the same tokens and reach a fixed point under
printing and re-parsing.  Over the same texts, the tokenizer gives the
reference tokenizer's token texts, offsets and bad-character errors.
"""

import contextlib
import io
import os
import random
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tokenize
from randgen import random_program
from zippersem import ast
from zippersem.ast import ParseError, parse_program, print_program
from zippersem.cli import main

PIECES = ["skip", "if", "else", "while", "true", "false", "null", "x", "y1",
          "If", "True", "x_1", ":=", ";", "(", ")", "{", "}", "// note\n",
          "%", "#", "=", ":", "1", "é", "\t", "\n", "/"]
SEPARATORS = [" ", "", "\n"]
TOKEN_RE = re.compile(r":=|[;(){}]|[A-Za-z][A-Za-z0-9_]*")

# line ends and a byte order mark, which the pieces above do not hold
RETURNS = ["skip;\r\nx := true", "skip;\rx := %", "\ufeffskip",
           "skip; // note\r\n y := é", "if (a) {\r\n skip\r\n}\r\n#",
           "x :=\r\n\r\n= true", "\r\n\r\n", "skip\r\n// é\r\n:"]

COMMANDS = ((["parse"], []), (["parse"], ["--ast"]),
            (["run"], ["--max-steps", "200"]), (["compile"], []),
            (["check", "sim"], ["--max-steps", "200"]))

token_soup = st.lists(st.builds(str.__add__, st.sampled_from(PIECES),
                                st.sampled_from(SEPARATORS)),
                      max_size=40).map("".join)


@st.composite
def near_miss(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    tokens = TOKEN_RE.findall(print_program(random_program(rng, max_depth=5,
                                                           derivable=True)))
    i = draw(st.integers(0, len(tokens) - 1))
    op = draw(st.sampled_from(["drop", "duplicate", "swap"]))
    if op == "drop":
        del tokens[i]
    elif op == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        j = min(i + 1, len(tokens) - 1)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def _check(text):
    try:
        c = parse_program(text)
    except ParseError as exc:
        # the position points into the text, or just past a line's end
        assert 1 <= exc.line <= text.count("\n") + 1
        assert 1 <= exc.column <= len(text.split("\n")[exc.line - 1]) + 1
    else:
        printed = print_program(c)
        # the grammar has no optional tokens: printing keeps every one
        assert TOKEN_RE.findall(re.sub("//[^\n]*", "", text)) == \
            TOKEN_RE.findall(printed)
        assert parse_program(printed) is c
        assert print_program(parse_program(printed)) == printed
    fd, path = tempfile.mkstemp(suffix=".imp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command, options in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + [path] + options)
            assert code in (0, 2, 3, 4, 5), (command, text, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("parse error: line ")
    finally:
        os.unlink(path)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(text=token_soup)
def test_token_soup_never_crashes(text):
    _check(text)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(text=near_miss())
def test_near_miss_programs_never_crash(text):
    _check(text)


def _same_tokens(text):
    """The parser's tokens and the offsets its errors report are the
    reference tokenizer's, and so is its bad-character error."""
    try:
        expected = tokenize(text)
    except ParseError as exc:
        try:
            ast._tokenize(text)
        except ParseError as got:
            assert (got.message, got.line, got.column) == \
                (exc.message, exc.line, exc.column)
        else:
            raise AssertionError(f"no error for {text!r}")
        return
    assert ast._tokenize(text) == [token for token, _ in expected]
    assert [ast._offset(text, k) for k in range(len(expected))] == \
        [offset for _, offset in expected]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(text=st.one_of(token_soup, near_miss()))
def test_tokens_and_offsets_match_the_reference(text):
    _same_tokens(text)


def test_tokens_and_offsets_across_line_ends():
    for text in RETURNS:
        _same_tokens(text)
