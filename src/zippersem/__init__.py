"""Zipper-based small-step semantics for a tiny imperative language,
compilation of programs to automata labeled by program points, and
silent-transition closure with an executable simulation witness."""

from .ast import ParseError, parse_program
from .semantics import run_trace
from .automaton import check_simulation, program_automaton
from .tauclose import check_tau_simulation, close_automaton

__all__ = ["ParseError", "check_simulation", "check_tau_simulation",
           "close_automaton", "parse_program", "program_automaton",
           "run_trace"]
