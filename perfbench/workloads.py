"""The two workloads: seeded inputs written to files, the CLI jobs that
read them, and the oracle each job's output is checked against.

A job is one `zippersem` command line on one generated file.  Sizes are
set so that one pass over a workload's jobs takes about a second on the
seed code; `tiny=True` shrinks every workload for the benchmark's tests.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

import gen
import reference as ref

WORKLOADS = ("corpus", "closure")


@dataclass
class Job:
    kind: str       # command name, e.g. "check-tausim"
    argv: list      # arguments for zippersem.cli.main
    check: object   # reference.check_*(code, out, err, expect)
    expect: object


@dataclass
class Inputs:
    jobs: list
    stats: dict     # input statistics, from the oracles only


def build(name, seed, workdir: Path, tiny=False) -> Inputs:
    rng = random.Random(f"{name}-{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = _BUILDERS[name](rng, workdir, tiny)
    rng.shuffle(inputs.jobs)
    inputs.stats["jobs"] = len(inputs.jobs)
    return inputs


def _stats():
    return {"jobs": 0, "programs": 0, "automata": 0, "subterms": 0,
            "nodes": 0, "edges": 0, "steps": 0, "closure_members": 0,
            "source_bytes": 0}


def _write(path: Path, text: str, stats):
    path.write_text(text, encoding="utf-8")
    stats["source_bytes"] += len(text.encode("utf-8"))
    return str(path)


def _count_automaton(stats, aut):
    stats["nodes"] += aut[0]
    stats["edges"] += len(aut[1])


def _count_closure(stats, closed):
    stats["closure_members"] += sum(len(x) for x in closed[0])


# ---------------------------------------------------------------- corpus

# Share of each (run status, closure size) stratum among program/state
# pairs drawn from the tests/randgen.py distribution (depth <= 8, at most
# 60 subterms, partial random states) at a 1000-step limit, measured by
# measure_corpus_shares().  Closure size (total members of the closed
# nodes) predicts the cost of tauclose and tausim, step-limit runs carry
# the cost of run and sim; filling fixed quotas instead of drawing freely
# keeps the mix of cheap and costly programs the same on every seed.  The
# buckets are fine above 100 members because the costliest 5% of jobs,
# which set the tail latency, come from there.  The 0.5% of draws with
# more than 1000 closure members are left out: one of them costs as much
# as a hundred typical programs, so whether a seed drew one moved the
# whole workload; closure growth is what the closure workload measures.
_CLOSURE_BUCKETS = (10, 30, 60, 100, 150, 200, 250, 300, 375, 450, 550, 650, 800)
CORPUS_MAX_CLOSURE = 1000
_CORPUS_SHARES = {  # per 300 draws; bucket k holds sizes above _CLOSURE_BUCKETS[k-1]
    ("step-limit", 0): 4.63, ("step-limit", 1): 2.37, ("step-limit", 2): 2.25,
    ("step-limit", 3): 1.11, ("step-limit", 4): 0.79, ("step-limit", 5): 0.5,
    ("step-limit", 6): 0.41, ("step-limit", 7): 0.24, ("step-limit", 8): 0.33,
    ("step-limit", 9): 0.17, ("step-limit", 10): 0.19, ("step-limit", 11): 0.15,
    ("step-limit", 12): 0.07, ("step-limit", 13): 0.07,
    ("stuck", 0): 14.99, ("stuck", 1): 14.6, ("stuck", 2): 14.99, ("stuck", 3): 9.93,
    ("stuck", 4): 7.84, ("stuck", 5): 5.73, ("stuck", 6): 4.56, ("stuck", 7): 3.68,
    ("stuck", 8): 4.59, ("stuck", 9): 3.09, ("stuck", 10): 2.89, ("stuck", 11): 1.95,
    ("stuck", 12): 1.76, ("stuck", 13): 1.14,
    ("terminated", 0): 156.29, ("terminated", 1): 18.75, ("terminated", 2): 7.28,
    ("terminated", 3): 3.57, ("terminated", 4): 2.19, ("terminated", 5): 1.68,
    ("terminated", 6): 1.24, ("terminated", 7): 0.96, ("terminated", 8): 0.99,
    ("terminated", 9): 0.65, ("terminated", 10): 0.57, ("terminated", 11): 0.42,
    ("terminated", 12): 0.27, ("terminated", 13): 0.14,
}
CORPUS_MAX_STEPS = 1000


def _bucket(closure_members):
    return sum(closure_members > edge for edge in _CLOSURE_BUCKETS)


def measure_corpus_shares(draws=60000):
    """The share per 300 draws of each stratum, as in _CORPUS_SHARES."""
    rng = random.Random("corpus-shares")
    counts = {}
    kept = 0
    for _ in range(draws):
        c = gen.random_program(rng)
        run = ref.run_program(c, gen.random_state(rng), CORPUS_MAX_STEPS)
        members = sum(len(x) for x in ref.close(*ref.program_automaton(c))[0])
        if members <= CORPUS_MAX_CLOSURE:
            kept += 1
            key = (run[0], _bucket(members))
            counts[key] = counts.get(key, 0) + 1
    return {k: round(300 * v / kept, 2) for k, v in sorted(counts.items())}


def _quotas(shares, n):
    """Largest-remainder rounding of shares to counts summing to n."""
    total = sum(shares.values())
    exact = {k: v * n / total for k, v in shares.items()}
    quota = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: quota[k] - exact[k])[:n - sum(quota.values())]:
        quota[k] += 1
    return quota


def _corpus(rng, workdir, tiny):
    n_programs = 20 if tiny else 99
    quota = _quotas(_CORPUS_SHARES, n_programs)
    stats = _stats()
    jobs = []
    while any(quota.values()):
        c = gen.random_program(rng)
        state = gen.random_state(rng)
        run = ref.run_program(c, state, CORPUS_MAX_STEPS)
        aut = ref.program_automaton(c)
        closed = ref.close(*aut)
        members = sum(len(x) for x in closed[0])
        stratum = (run[0], _bucket(members))
        if members > CORPUS_MAX_CLOSURE or not quota[stratum]:
            continue
        quota[stratum] -= 1
        i = stats["programs"]
        stats["programs"] += 1
        stats["subterms"] += gen.subterms(c)
        stats["steps"] += run[1]
        _count_automaton(stats, aut)
        _count_closure(stats, closed)
        f = _write(workdir / f"p{i}.imp", gen.render_file(c, f"corpus program {i}"), stats)
        run_args = ["--state", gen.state_arg(state), "--max-steps", str(CORPUS_MAX_STEPS)]
        jobs += [
            Job("parse", ["parse", f], ref.check_parse, gen.render(c)),
            Job("run", ["run", f, *run_args], ref.check_run_text, run),
            Job("run-json", ["run", f, *run_args, "--trace-format", "json"],
                ref.check_run_json, run),
            Job("compile", ["compile", f], ref.check_compile_json, aut),
            Job("compile-dot", ["compile", f, "--format", "dot"], ref.check_compile_dot, aut),
            Job("compile-numbered", ["compile", f, "--numbered"],
                ref.check_compile_numbered, aut),
            Job("tauclose", ["tauclose", f], ref.check_closed_json, closed),
            Job("check-sim", ["check", "sim", f, *run_args], ref.check_sim, run),
            Job("check-closure", ["check", "closure", f], ref.check_closure, None),
            Job("check-tausim", ["check", "tausim", f], ref.check_tausim, closed),
        ]
    return Inputs(jobs, stats)


# --------------------------------------------------------------- closure
#
# Program automata, whose nodes are cursors (zipper paths), and integer
# automata read with --automaton, through the closure commands.  Sizes
# are fixed and each family spans a range of them, so that job costs form
# a continuum without gaps for a percentile to fall into; the seed picks
# names, actions and destinations, never the silent structure.  Every job
# takes at most a few tens of milliseconds on the seed code, so a 50 s
# run times each job about forty times.

def _closure(rng, workdir, tiny):
    stats = _stats()
    jobs = _programs(rng, workdir, tiny, stats) + _automata(rng, workdir, tiny, stats)
    return Inputs(jobs, stats)


def _programs(rng, workdir, tiny, stats):
    """nested(d) and ';' chains through compile, tauclose and the closure
    and tausim checks; nothing is run.  Closure cost grows with about the
    cube of the depth."""
    depths = (3, 5) if tiny else (3, 4, 5, 6, 7, 8)
    lengths = (20, 30) if tiny else (15, 20, 30, 40, 50)
    programs = []
    for d in depths:
        test, inner, tail = rng.sample(gen.NAMES, 3)
        programs.append((f"nested{d}", gen.nested(d, test, inner, tail)))
    for n in lengths:
        programs.append((f"chain{n}", gen.chain(rng, n)))
    jobs = []
    for label, c in programs:
        aut = ref.program_automaton(c)
        closed = ref.close(*aut)
        stats["programs"] += 1
        stats["subterms"] += gen.subterms(c)
        _count_automaton(stats, aut)
        _count_closure(stats, closed)
        f = _write(workdir / f"{label}.imp", gen.render_file(c, label), stats)
        jobs += [
            Job("compile", ["compile", f], ref.check_compile_json, aut),
            Job("tauclose", ["tauclose", f], ref.check_closed_json, closed),
            Job("check-closure", ["check", "closure", f], ref.check_closure, None),
            Job("check-tausim", ["check", "tausim", f], ref.check_tausim, closed),
        ]
    return jobs


def _automata(rng, workdir, tiny, stats):
    """Sparse automata (silent out-degree below 1, closures of about 3)
    and dense ones (one giant silent component) through tauclose, tausim
    and regular, all with --automaton."""
    sparse_sizes, dense_sizes = ((60, 80), (16, 20)) if tiny else (range(80, 280, 20),
                                                                  range(16, 36, 2))
    automata = [(f"sparse{n}", gen.sparse_automaton(rng, n, 1.5)) for n in sparse_sizes]
    automata += [(f"dense{n}", gen.dense_automaton(rng, n, 5 * n)) for n in dense_sizes]
    jobs = []
    for label, data in automata:
        aut = ref.automaton_from_json(data)
        closed = ref.close(*aut)
        stats["automata"] += 1
        _count_automaton(stats, aut)
        _count_closure(stats, closed)
        f = _write(workdir / f"{label}.json", json.dumps(data), stats)
        jobs += [
            Job("tauclose-automaton", ["tauclose", "--automaton", f],
                ref.check_closed_json, closed),
            Job("check-tausim-automaton", ["check", "tausim", "--automaton", f],
                ref.check_tausim, closed),
            Job("check-regular", ["check", "regular", "--automaton", f], ref.check_regular, None),
        ]
    return jobs


_BUILDERS = {"corpus": _corpus, "closure": _closure}
