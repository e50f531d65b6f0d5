"""Small-step operational semantics over cursors.

A configuration pairs a cursor (focus, path and direction flag) with a state,
a finite map from variable names to values.  Reading an unassigned variable
yields null, which is distinct from a stored null binding only in the map's
key set.  Execution is a walk of the fixed syntax tree: the statement is
never rewritten, only the cursor moves.

Exactly one rule applies to any configuration, or none.  A configuration
with no applicable rule is terminal when the cursor is leaving the root,
and stuck otherwise (a condition evaluated to null).
"""

from typing import NamedTuple

from .ast import (FALSE, NULL, TRUE, Assign, Cond, Expr, Lit, Seq, Skip,
                  Stmt, Value, Var, While)
from .zipper import (TOP, CondElse, CondThen, Cursor, SeqLeft, Top, WhileBody,
                     advance, render_path)

State = dict  # variable name -> Value

TERMINATED = "terminated"
STUCK = "stuck"
STEP_LIMIT = "step-limit"


class Config(NamedTuple):
    cursor: Cursor
    state: State


def eval_expr(e: Expr, s: State) -> Value:
    """Literals evaluate to themselves, variables to their binding or null."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return s.get(e.name, NULL)
    raise TypeError(f"not an expression: {e!r}")


def _leave(cur: Cursor) -> Cursor:
    return Cursor(cur.focus, cur.path, False)


def sem_step(cfg: Config):
    """One small step: (next configuration, rule name), or None.

    None means no rule applies; is_terminal distinguishes normal
    termination from a stuck conditional.  States are treated as
    immutable, assignment builds a fresh map.
    """
    cur, s = cfg
    focus = cur.focus
    path = cur.path
    if cur.entering:
        if isinstance(focus, Skip):
            return Config(_leave(cur), s), "SEmpty"
        if isinstance(focus, Assign):
            return Config(_leave(cur), {**s, focus.name: focus.value}), "SAssign"
        if isinstance(focus, Seq):
            nxt = Cursor(focus.first, SeqLeft(path, focus.second), True)
            return Config(nxt, s), "SSeq"
        if isinstance(focus, Cond):
            v = eval_expr(focus.test, s)
            if v == TRUE:
                nxt = Cursor(focus.then_branch,
                             CondThen(focus.test, path, focus.else_branch), True)
                return Config(nxt, s), "SCondT"
            if v == FALSE:
                nxt = Cursor(focus.else_branch,
                             CondElse(focus.test, focus.then_branch, path), True)
                return Config(nxt, s), "SCondF"
            return None  # null condition, stuck
        if isinstance(focus, While):
            v = eval_expr(focus.test, s)
            if v == TRUE:
                nxt = Cursor(focus.body, WhileBody(focus.test, path), True)
                return Config(nxt, s), "SWhileT"
            if v == FALSE:
                return Config(_leave(cur), s), "SWhileF"
            return None
        raise TypeError(f"not a statement: {focus!r}")
    if isinstance(path, Top):
        return None  # leaving the root: terminal
    return Config(advance(focus, path), s), "SFalse"


def is_terminal(cfg: Config) -> bool:
    """Leaving the root, nothing left to run."""
    return not cfg.cursor.entering and isinstance(cfg.cursor.path, Top)


class Trace(NamedTuple):
    start: Config
    steps: list                 # [(Config, rule name)]
    status: str
    stuck_reason: str | None = None

    @property
    def final(self) -> Config:
        """The last configuration; only the benchmark's own test reads it."""
        return self.steps[-1][0] if self.steps else self.start


def run_trace(c: Stmt, state: State, max_steps: int = 10000) -> Trace:
    """Run from the entering-root configuration for at most max_steps steps."""
    start = cfg = Config(Cursor(c, TOP, True), dict(state))
    steps = []
    for _ in range(max_steps):
        res = sem_step(cfg)
        if res is None:
            break
        cfg, rule = res
        steps.append((cfg, rule))
    if is_terminal(cfg):
        return Trace(start, steps, TERMINATED)
    if sem_step(cfg) is None:
        return Trace(start, steps, STUCK, f"condition evaluated to null at "
                     f"{render_path(cfg.cursor.path)}")
    return Trace(start, steps, STEP_LIMIT)
