"""Syntax of a tiny boolean imperative language: values, expressions,
statements, a parser and a printer.

Concrete grammar, right-associative ';', mandatory braces:

    program := stmt EOF
    stmt    := basic (';' stmt)?
    basic   := 'skip'
             | IDENT ':=' literal
             | 'if' '(' expr ')' '{' stmt '}' 'else' '{' stmt '}'
             | 'while' '(' expr ')' '{' stmt '}'
    expr    := literal | IDENT
    literal := 'true' | 'false' | 'null'

Assignment right-hand sides are literals only.  Whitespace and '//' line
comments are ignored.  Identifiers are [A-Za-z][A-Za-z0-9_]* minus the
keywords: the names `is_valid_name` accepts, here as everywhere else.

The tokenizer gives the text of each token, and a token's text gives its
kind: a keyword or symbol is its own spelling, which no identifier has,
and the end of input is the empty token.  A token's offset is found again
only for an error that reports it.
"""

import re
import reprlib
import weakref


class _Entry(weakref.ref):
    """The table's entry for a node: a weak reference that carries its key."""
    __slots__ = ("key",)


def _forget(ref):
    """Drop a dead node's entry, unless a newer node holds the key now."""
    if HashConsed._live.get(ref.key) is ref:
        del HashConsed._live[ref.key]


class _Interning(type):
    """Fields are a class's `__slots__`.  A call with one value per field
    returns the live node of those values, or a new one it records."""

    def __call__(cls, *values):
        key = (cls, *values)
        ref = HashConsed._live.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(values) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} values")
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(node, name, value)
        ref = HashConsed._live[key] = _Entry(node, _forget)
        ref.key = key
        return node


class HashConsed(metaclass=_Interning):
    """Base of every syntax node and path frame.

    Evaluation walks one fixed syntax tree and the automata compare program
    points, positions in that tree, all the time.  Hash-consing (Filliâtre
    and Conchon, Type-Safe Modular Hash-Consing, 2006) makes structurally
    equal values one object, so equality is identity, hashing is O(1), and
    a zipper step that rebuilds a parent gets the original node back.
    These are the values whose structural equality would cost their depth.
    A program point, zipper.Cursor, is a NamedTuple over interned fields,
    which compares in O(1) without a table entry of its own.  An
    automaton edge's action is an Assign node itself, so actions compare
    and hash the same way.  The table of live values maps each key to a
    weak reference that carries the key, so dropping a program frees its
    nodes, and a dead node's reference removes its own entry.
    Each concrete class subclasses this one directly and lists its fields
    in `__slots__`; this base adds only the weak reference slot, so a node
    holds its fields and nothing else, and has no `__dict__`.  Nodes are
    immutable.  Cursors and the node sets of closed automata are not
    interned: a table entry would only cost.
    """

    __slots__ = ("__weakref__",)
    _live = {}

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        """The dataclass repr, built on a stack so that deep trees print."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, name in enumerate(type(item).__slots__):
                v = getattr(item, name)
                parts += [f"{', ' if i else ''}{name}=",
                          v if isinstance(v, HashConsed) else repr(v)]
            stack += reversed(parts + [")"])
        return "".join(out)


class Bool(HashConsed):
    __slots__ = ("value",)


class Null(HashConsed):
    __slots__ = ()


# runtime value: a boolean or null
Value = Bool | Null

TRUE = Bool(True)
FALSE = Bool(False)
NULL = Null()


class Lit(HashConsed):
    __slots__ = ("value",)


class Var(HashConsed):
    __slots__ = ("name",)


# expression: a literal value or a variable read
Expr = Lit | Var


class Skip(HashConsed):
    __slots__ = ()


class Assign(HashConsed):
    __slots__ = ("name", "value")


class Seq(HashConsed):
    __slots__ = ("first", "second")


class Cond(HashConsed):
    __slots__ = ("test", "then_branch", "else_branch")


class While(HashConsed):
    __slots__ = ("test", "body")


Stmt = Skip | Assign | Seq | Cond | While


KEYWORDS = frozenset({"skip", "if", "else", "while", "true", "false", "null"})

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def is_valid_name(s: str) -> bool:
    """Variable names are identifiers and never keywords."""
    return bool(_IDENT_RE.match(s)) and s not in KEYWORDS


def value_literal(v: Value) -> str:
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Null):
        return "null"
    raise TypeError(f"not a value: {v!r}")


def brief_repr(value) -> str:
    """repr(value), or reprlib's cut of it when the repr is over 100 chars."""
    full = repr(value)
    return full if len(full) <= 100 else reprlib.repr(value)


def parse_value_literal(s: str) -> Value:
    if s == "true":
        return TRUE
    if s == "false":
        return FALSE
    if s == "null":
        return NULL
    raise ValueError(f"expected one of true, false, null: {brief_repr(s)}")


def print_expr(e: Expr, name=str) -> str:
    if isinstance(e, Lit):
        return value_literal(e.value)
    if isinstance(e, Var):
        return name(e.name)
    raise TypeError(f"not an expression: {e!r}")


def print_program(c: Stmt, texts=(), name=str) -> str:
    """Render a statement in canonical single-line concrete syntax.

    Total on all ASTs.  A Seq nested on the left has no source form in the
    grammar, so its rendering re-parses right-nested; everything the parser
    can produce round-trips to an equal tree.  A subterm found in `texts`
    prints as its text there, so that texts built children first are each
    one join of their children's, and `name` prints each variable name.
    """
    out, stack = [], [c]
    while stack:
        c = stack.pop()
        if isinstance(c, str):
            out.append(c)
        elif c in texts:
            out.append(texts[c])
        elif isinstance(c, Skip):
            out.append("skip")
        elif isinstance(c, Assign):
            out.append(f"{name(c.name)} := {value_literal(c.value)}")
        elif isinstance(c, Seq):
            stack += [c.second, "; ", c.first]
        elif isinstance(c, Cond):
            stack += [" }", c.else_branch, " } else { ", c.then_branch,
                      f"if ({print_expr(c.test, name)}) {{ "]
        elif isinstance(c, While):
            stack += [" }", c.body, f"while ({print_expr(c.test, name)}) {{ "]
        else:
            raise TypeError(f"not a statement: {c!r}")
    return "".join(out)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    @classmethod
    def at(cls, text: str, offset: int, message: str) -> "ParseError":
        """The error at `offset` in `text`, with 1-based line and column."""
        return cls(message, text.count("\n", 0, offset) + 1,
                   offset - text.rfind("\n", 0, offset))

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+ | //[^\n]*
      | ([A-Za-z][A-Za-z0-9_]*|:=|[;(){}]|.)  # a token or any other character
    """,
    re.VERBOSE | re.DOTALL,
)

# the one-character tokens; any other character found alone is an error
_SINGLES = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                     "abcdefghijklmnopqrstuvwxyz;(){}")


def _offset(text: str, k: int) -> int:
    """Offset of token k in `text`, or len(text) for the end of input."""
    for m in _TOKEN_RE.finditer(text):
        if m.group(1):
            if not k:
                return m.start()
            k -= 1
    return len(text)


def _tokenize(text: str) -> list[str]:
    """Text of each token, then "" for the end of input."""
    tokens = list(filter(None, _TOKEN_RE.findall(text)))
    if any(len(t) == 1 for t in set(tokens).difference(_SINGLES)):
        k, bad = next((k, t) for k, t in enumerate(tokens)
                      if len(t) == 1 and t not in _SINGLES)
        raise ParseError.at(text, _offset(text, k),
                            f"unexpected character {bad!r}")
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def fail(self, message: str):
        token = self.tokens[self.pos]
        what = repr(token) if token else "end of input"
        raise ParseError.at(self.text, _offset(self.text, self.pos),
                            f"{message}, found {what}")

    def expect(self, token: str):
        """Step past the next token, which must be `token`."""
        if self.peek() != token:
            self.fail(f"expected {token!r}")
        self.pos += 1

    def parse_stmt(self) -> Stmt:
        """stmt := basic (';' stmt)?, with open blocks on an explicit stack
        so that nesting depth is not bounded by the recursion limit.  Each
        block keeps the ';' chain it interrupts, its keyword ('if', 'else'
        or 'while'), its test and, for 'else', the then-branch."""
        blocks = []
        chain = []
        while True:
            token = self.peek()
            if token in ("if", "while"):
                self.pos += 1
                self.expect("(")
                test = self.parse_expr()
                self.expect(")")
                self.expect("{")
                blocks.append((chain, token, test, None))
                chain = []
                continue
            if token == "skip":
                self.pos += 1
                chain.append(Skip())
            elif is_valid_name(token):
                self.pos += 1
                self.expect(":=")
                chain.append(Assign(token, self.parse_literal()))
            else:
                self.fail("expected a statement")
            # a basic statement is complete: close every chain it ends
            while True:
                if self.peek() == ";":
                    self.pos += 1
                    break
                stmt = chain[-1]
                for part in reversed(chain[:-1]):
                    stmt = Seq(part, stmt)
                if not blocks:
                    return stmt
                chain, keyword, test, then_branch = blocks.pop()
                self.expect("}")
                if keyword == "if":
                    self.expect("else")
                    self.expect("{")
                    blocks.append((chain, "else", test, stmt))
                    chain = []
                    break
                chain.append(While(test, stmt) if keyword == "while"
                             else Cond(test, then_branch, stmt))

    def parse_expr(self) -> Expr:
        token = self.peek()
        if is_valid_name(token):
            self.pos += 1
            return Var(token)
        return Lit(self.parse_literal("an expression"))

    def parse_literal(self, what="a literal (true, false or null)") -> Value:
        token = self.peek()
        if token not in ("true", "false", "null"):
            self.fail(f"expected {what}")
        self.pos += 1
        return parse_value_literal(token)


def parse_program(text: str) -> Stmt:
    """Parse source text into a statement tree.

    Raises ParseError with line and column information on bad input.
    """
    parser = _Parser(text)
    stmt = parser.parse_stmt()
    if parser.peek():
        parser.fail("expected end of input")
    return stmt
