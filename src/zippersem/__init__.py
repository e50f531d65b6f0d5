"""Zipper-based small-step semantics for a tiny imperative language,
compilation of programs to automata labeled by program points, and
silent-transition closure with an executable simulation witness."""

from .ast import (FALSE, NULL, TRUE, Assign, Bool, Cond, Expr, Lit, Null,
                  ParseError, Seq, Skip, Stmt, Value, Var, While,
                  parse_program, print_program)
from .zipper import (TOP, CondElse, CondThen, Cursor, Location, Path, SeqLeft,
                     SeqRight, Top, WhileBody, advance, all_locations,
                     cursors_of, render_path)
from .semantics import (STEP_LIMIT, STUCK, TERMINATED, Config, Trace,
                        eval_expr, is_terminal, run_trace, sem_step)
from .automaton import (SILENT, Automaton, Edge, SimulationReport,
                        action_effect, action_of, check_simulation,
                        edges_closed, edges_of, is_regular, nodes_closed,
                        program_automaton, step_image)
from .tauclose import NodeSet, TauSimReport, check_tau_simulation, close_automaton

__version__ = "0.1.0"
