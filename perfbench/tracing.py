"""Per-layer spans around the package's public functions, installed from
the benchmark's side.

`Tracer.install` replaces every binding of a traced function that any
`zippersem` module holds (for example both `cli.close_automaton` and
`tauclose.close_automaton`, so the call inside `check_tau_simulation`
shows up as a child span) and `restore` puts the originals back.  Spans
are [name, start, end, parent index, job index]; they stay in memory and
are written out at the end of the run.  A recursive call of a traced
function runs straight through, so a span is one outermost call.
"""

import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "ast": ("parse_program", "print_program"),
    "zipper": ("all_locations",),
    "semantics": ("run_trace",),
    "automaton": ("program_automaton", "check_simulation", "nodes_closed",
                  "edges_closed", "step_image_closed", "is_regular"),
    "tauclose": ("close_automaton", "check_tau_simulation"),
    "formats": ("trace_json", "trace_text", "program_automaton_json",
                "closed_automaton_json", "generic_automaton_json",
                "numbered_automaton_json", "rename_nodes", "closed_labels",
                "automaton_dot", "to_json_text", "load_automaton"),
}
CLOSURE_CHECKS = ("automaton.nodes_closed", "automaton.edges_closed",
                  "automaton.step_image_closed")
AUTOMATON_JSON = ("formats.program_automaton_json", "formats.closed_automaton_json",
                  "formats.generic_automaton_json", "formats.numbered_automaton_json",
                  "formats.rename_nodes", "formats.closed_labels")
MEMORY_TRACED = ("semantics.run_trace", "formats.trace_json", "tauclose.close_automaton")


def _count_parse(t, span, args, result):
    t.counts["ast.source_chars"] += len(args[0])


def _count_locations(t, span, args, result):
    t.counts["zipper.locations"] += len(result)


def _count_run(t, span, args, result):
    t.counts["semantics.steps"] += len(result.steps)


def _count_automaton(t, span, args, result):
    t.counts["automaton.nodes"] += len(result.nodes)
    t.counts["automaton.edges"] += len(result.edges)


def _count_sim(t, span, args, result):
    t.counts["automaton.check_simulation.steps"] += result.steps_checked


def _count_close(t, span, args, result):
    edges = len(result.edges)
    t.counts["tauclose.closure_members"] += sum(len(n) for n in dict.fromkeys(result.nodes))
    t.counts["tauclose.closed_edges"] += edges
    t.close_sizes.append((span, edges))


def _count_tausim(t, span, args, result):
    t.counts["tauclose.tausim_pairs"] += result.checked_pairs


COUNTERS = {
    "ast.parse_program": _count_parse,
    "zipper.all_locations": _count_locations,
    "semantics.run_trace": _count_run,
    "automaton.program_automaton": _count_automaton,
    "automaton.check_simulation": _count_sim,
    "tauclose.close_automaton": _count_close,
    "tauclose.check_tau_simulation": _count_tausim,
}


def _bindings(originals):
    """(module, attribute, original) for every zippersem global bound to
    one of the original functions."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zippersem" or mod_name.startswith("zippersem.")):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in originals:
                found.append((mod, attr, value))
    return found


class _Patch:
    """Replaces functions by wrappers everywhere they are bound."""

    def __init__(self):
        self._saved = []

    def install(self, names, make_wrapper):
        originals = {}
        for full in names:
            mod_name, fn_name = full.split(".")
            fn = getattr(sys.modules.get(f"zippersem.{mod_name}"), fn_name, None)
            if fn is not None:      # a later version may drop a function
                originals[id(fn)] = (full, fn)
        wrappers = {key: make_wrapper(full, fn) for key, (full, fn) in originals.items()}
        for mod, attr, value in _bindings(originals):
            setattr(mod, attr, wrappers[id(value)])
            self._saved.append((mod, attr, value))

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


class Tracer(_Patch):
    def __init__(self):
        super().__init__()
        self.spans = []             # [name, start, end, parent, job]
        self.job_kinds = []         # kind of each traced job, by job index
        self.counts = defaultdict(float)
        self.close_sizes = []       # (span index, closed edge count)
        self._stack = []

    def start_job(self, kind):
        self.job_kinds.append(kind)

    def install_all(self):
        names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
        self.install(names, self._wrap)

    def _wrap(self, name, fn):
        spans, stack, job_kinds = self.spans, self._stack, self.job_kinds
        counter = COUNTERS.get(name)
        active = [False]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(job_kinds) - 1]
            spans.append(span)
            stack.append(index)
            active[0] = True
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[0] = False
                stack.pop()
            if counter is not None:
                try:
                    counter(self, index, args, result)
                except Exception:   # a changed return type loses a count, not the job
                    pass
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class MemoryProbe(_Patch):
    """Peak traced allocation inside each call of a few functions, from a
    pass of its own under tracemalloc, apart from the timed spans."""

    def __init__(self):
        super().__init__()
        self.peak = dict.fromkeys(MEMORY_TRACED, 0)

    def __enter__(self):
        tracemalloc.start()
        self.install(MEMORY_TRACED, self._wrap)
        return self

    def __exit__(self, *exc):
        self.restore()
        tracemalloc.stop()

    def _wrap(self, name, fn):
        peak = self.peak

        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak[name] = max(peak[name], tracemalloc.get_traced_memory()[1] - base)
            return result

        return probed


def _slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, passes, memory: MemoryProbe):
    """Per-layer metrics of one traced segment.  Times and counts are per
    pass over the workload's jobs; rates and ratios are as measured."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        self_time[name] += end - start - child[i]

    kinds = tracer.job_kinds

    def calls_per_job(name, kind):
        jobs = sum(1 for k in kinds if k == kind)
        hits = sum(1 for s in spans if s[0] == name and kinds[s[4]] == kind)
        return hits / jobs if jobs else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    closure_checks = sum(s[2] - s[1] for s in spans
                         if s[0] in CLOSURE_CHECKS and (s[3] < 0 or spans[s[3]][0] not in CLOSURE_CHECKS))
    c = tracer.counts
    per_pass = {
        "cli.main.self_s": self_time["cli.main"],
        "cli.jobs": calls["cli.main"],
        "ast.parse_program.s": total["ast.parse_program"],
        "ast.print_program.s": total["ast.print_program"],
        "zipper.all_locations.s": total["zipper.all_locations"],
        "zipper.locations": c["zipper.locations"],
        "semantics.run_trace.s": total["semantics.run_trace"],
        "semantics.steps": c["semantics.steps"],
        "automaton.program_automaton.self_s": self_time["automaton.program_automaton"],
        "automaton.nodes": c["automaton.nodes"],
        "automaton.edges": c["automaton.edges"],
        "automaton.check_simulation.self_s": self_time["automaton.check_simulation"],
        "automaton.closure_checks.s": closure_checks,
        "automaton.is_regular.s": total["automaton.is_regular"],
        "tauclose.close_automaton.s": total["tauclose.close_automaton"],
        "tauclose.closure_members": c["tauclose.closure_members"],
        "tauclose.closed_edges": c["tauclose.closed_edges"],
        "tauclose.check_tau_simulation.self_s": self_time["tauclose.check_tau_simulation"],
        "tauclose.tausim_pairs": c["tauclose.tausim_pairs"],
        "formats.trace_json.s": total["formats.trace_json"],
        "formats.trace_text.s": total["formats.trace_text"],
        "formats.automaton_json.s": sum(total[n] for n in AUTOMATON_JSON),
        "formats.automaton_dot.s": total["formats.automaton_dot"],
        "formats.to_json_text.s": total["formats.to_json_text"],
        "formats.load_automaton.s": total["formats.load_automaton"],
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics.update({
        "ast.source_kb_per_s": rate(c["ast.source_chars"] / 1000, total["ast.parse_program"]),
        "semantics.steps_per_s": rate(c["semantics.steps"], total["semantics.run_trace"]),
        "automaton.check_simulation.steps_per_s": rate(
            c["automaton.check_simulation.steps"], total["automaton.check_simulation"]),
        "automaton.nodes_closed.calls_per_check": calls_per_job(
            "automaton.nodes_closed", "check-closure"),
        "tauclose.close_automaton.calls_per_tausim": calls_per_job(
            "tauclose.close_automaton", "check-tausim"),
        # program automata only: integer automata close at another
        # constant factor, and mixing the two would bend the line
        "tauclose.close_automaton.scaling_exponent": _slope(
            [(edges, spans[i][2] - spans[i][1]) for i, edges in tracer.close_sizes
             if not kinds[spans[i][4]].endswith("-automaton")]),
    })
    metrics.update({f"{name}.peak_mb": b / 2**20 for name, b in memory.peak.items()})
    return metrics
