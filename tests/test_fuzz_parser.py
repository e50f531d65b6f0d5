"""Fuzz gate for the parser.

Random strings over the grammar's tokens and a few junk characters, and
near-miss programs (a random program's text with one token dropped,
duplicated or swapped with its neighbour), go through every command that
reads a program.  Each must end in a documented exit code.  Every text that
parses must print with the same tokens and reach a fixed point under
printing and re-parsing.
"""

import contextlib
import io
import os
import random
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_program
from zippersem.ast import ParseError, parse_program, print_program
from zippersem.cli import main

PIECES = ["skip", "if", "else", "while", "true", "false", "null", "x", "y1",
          "If", "True", "x_1", ":=", ";", "(", ")", "{", "}", "// note\n",
          "%", "#", "=", ":", "1", "é", "\t", "\n", "/"]
SEPARATORS = [" ", "", "\n"]
TOKEN_RE = re.compile(r":=|[;(){}]|[A-Za-z][A-Za-z0-9_]*")

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
