"""Zipper navigation in statement trees.

A location is a focused substatement and its inverted context (Path): the
chain of enclosing constructors seen from the focus outward.  Rebuilding
the original tree is a fold over that chain.  A Cursor is a program point:
a focus, its path and a direction flag, where entering means the focus is
about to run and leaving means it just finished.  Cursors are the nodes of
the compiled automata and the positions of the semantics.

Path frames are hash-consed like syntax nodes, since comparing two paths
by structure would cost their depth.  A Cursor is a plain NamedTuple over
its interned fields: comparing and hashing it touches three fields, each
compared by identity, so it needs no interning of its own.
"""

from typing import NamedTuple

from .ast import Cond, HashConsed, Seq, Stmt, While


class Top(HashConsed):
    __slots__ = ()


class SeqLeft(HashConsed):
    """Focus is the first statement of a Seq; `after` is the second."""
    __slots__ = ("up", "after")


class SeqRight(HashConsed):
    """Focus is the second statement of a Seq; `before` is the first."""
    __slots__ = ("before", "up")


class CondThen(HashConsed):
    """Focus is the then-branch of a Cond."""
    __slots__ = ("test", "up", "orelse")


class CondElse(HashConsed):
    """Focus is the else-branch of a Cond."""
    __slots__ = ("test", "then_branch", "up")


class WhileBody(HashConsed):
    """Focus is the body of a While."""
    __slots__ = ("test", "up")


# inverted context of a focus; frames point upward to the root
Path = Top | SeqLeft | SeqRight | CondThen | CondElse | WhileBody

TOP = Top()


class Cursor(NamedTuple):
    """A program point: a focus, its path and a direction flag.

    entering=True sits just before the focus runs, entering=False just
    after it finished.
    """
    focus: Stmt
    path: Path
    entering: bool


def all_locations(c: Stmt) -> list[tuple[Stmt, Path]]:
    """Every location of the program `c` as a (focus, path) pair, in
    pre-order.

    The result has exactly one entry per statement subterm; plugging any
    entry's focus back into its path, frame by frame, rebuilds `c`.
    """
    out = []
    stack = [(c, TOP)]
    while stack:
        c, sp = stack.pop()
        out.append((c, sp))
        if isinstance(c, Seq):
            stack.append((c.second, SeqRight(c.first, sp)))
            stack.append((c.first, SeqLeft(sp, c.second)))
        elif isinstance(c, Cond):
            stack.append((c.else_branch, CondElse(c.test, c.then_branch, sp)))
            stack.append((c.then_branch, CondThen(c.test, sp, c.else_branch)))
        elif isinstance(c, While):
            stack.append((c.body, WhileBody(c.test, sp)))
    return out


def advance(c: Stmt, sp: Path) -> Cursor:
    """The program point reached after the focus `c` at `sp` finishes.

    Finishing the first arm of a Seq enters the second arm; finishing a
    second arm, a branch, or anything at the root leaves the enclosing
    statement; finishing a loop body re-enters the loop header.
    """
    if isinstance(sp, Top):
        return Cursor(c, sp, False)
    if isinstance(sp, SeqLeft):
        return Cursor(sp.after, SeqRight(c, sp.up), True)
    if isinstance(sp, SeqRight):
        return Cursor(Seq(sp.before, c), sp.up, False)
    if isinstance(sp, CondThen):
        return Cursor(Cond(sp.test, c, sp.orelse), sp.up, False)
    if isinstance(sp, CondElse):
        return Cursor(Cond(sp.test, sp.then_branch, c), sp.up, False)
    if isinstance(sp, WhileBody):
        return Cursor(While(sp.test, c), sp.up, True)
    raise TypeError(f"not a path: {sp!r}")


_SEGMENT = {
    SeqLeft: "seqL",
    SeqRight: "seqR",
    CondThen: "condT",
    CondElse: "condF",
    WhileBody: "body",
}


def render_path(sp: Path) -> str:
    """Slash-joined segments from the root down to the focus, '@top' if empty."""
    parts = []
    while not isinstance(sp, Top):
        parts.append(_SEGMENT[type(sp)])
        sp = sp.up
    return "/".join(reversed(parts)) or "@top"


def path_texts(paths) -> dict:
    """render_path of each given path and of every path above it, each
    text built once from its parent's text."""
    text = {TOP: "@top"}
    for p in paths:
        chain = []
        while p not in text:
            chain.append(p)
            p = p.up
        t = text[p]
        for q in reversed(chain):
            seg = _SEGMENT[type(q)]
            t = text[q] = seg if q.up is TOP else f"{t}/{seg}"
    return text


_SEGMENT_RANK = {t: i for i, t in enumerate(sorted(_SEGMENT, key=_SEGMENT.get))}


def path_ranks(paths) -> dict:
    """Integer ranks that order paths as their render_path strings do.

    No segment name is a prefix of another and '@top' sorts before them
    all, so that string order is a pre-order walk over segment sequences:
    a path before its extensions, children in segment-name order.  The
    ranks number a trie of the given paths' segment sequences in that
    walk, without rendering.  Paths of different trees with equal
    segments share a rank.  The result also ranks every path above a
    given one.
    """
    trie = {TOP: 0}
    kids = [{}]
    for p in paths:
        chain = []
        while p not in trie:
            chain.append(p)
            p = p.up
        t = trie[p]
        for q in reversed(chain):
            t = trie[q] = kids[t].setdefault(_SEGMENT_RANK[type(q)], len(kids))
            if t == len(kids):
                kids.append({})
    order = [0] * len(kids)
    stack = [0]
    for i in range(len(kids)):
        t = stack.pop()
        order[t] = i
        stack += [kids[t][s] for s in sorted(kids[t], reverse=True)]
    return {p: order[t] for p, t in trie.items()}


def render_cursor(cur: Cursor) -> str:
    arrow = "↓" if cur.entering else "↑"
    return f"{render_path(cur.path)} {arrow}"
