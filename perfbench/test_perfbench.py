"""Tests of the benchmark itself: the oracles agree with the package, each
reference check rejects a corrupted output, every workload passes at tiny
size, and the traced run reports every declared per-layer metric.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import gen
import reference as ref
import run
import tracing
import workloads

cli = run.import_cli()
from zippersem import ast, automaton, formats, semantics, tauclose  # noqa: E402


def _values(state):
    return {k: ast.parse_value_literal(v) for k, v in state.items()}


def test_oracles_agree_with_the_package():
    rng = random.Random(11)
    for _ in range(300):
        c = gen.random_program(rng)
        state = gen.random_state(rng)
        program = ast.parse_program(gen.render_file(c, "t"))
        assert ast.print_program(program) == gen.render(c)
        limit = rng.choice([0, 3, 40, 500])
        trace = semantics.run_trace(program, _values(state), limit)
        final = {k: ast.value_literal(v) for k, v in trace.final.state.items()}
        assert ref.run_program(c, state, limit) == (trace.status, len(trace.steps), final)
        aut = automaton.program_automaton(program)
        expect = ref.program_automaton(c)
        assert ref.automaton_from_json(formats.program_automaton_json(aut)) == expect
        closed = formats.closed_automaton_json(aut, tauclose.close_automaton(aut))
        nodes, edges, init = ref.close(*expect)
        assert [tuple(n["members"]) for n in closed["nodes"]] == nodes
        assert members_of(closed, closed["init"]) == init


def members_of(closed_json, node_id):
    return tuple(closed_json["nodes"][node_id]["members"])


# --------------------------------------------------- corrupted outputs

PROGRAM = ("seq", ("assign", "x", "true"),
           ("while", ("var", "x"), ("if", ("var", "y"), ("assign", "x", "false"),
                                    ("seq", ("skip",), ("assign", "y", "true")))))
STATE = {"y": "false"}
AUTOMATON = {"nodes": [{"id": i} for i in range(5)],
             "edges": [{"source": 0, "action": {"kind": "none"}, "dest": 1},
                       {"source": 0, "action": {"kind": "none"}, "dest": 2},
                       {"source": 1, "action": {"kind": "assign", "var": "a", "val": "true"}, "dest": 3},
                       {"source": 2, "action": {"kind": "assign", "var": "b", "val": "true"}, "dest": 4},
                       {"source": 4, "action": {"kind": "none"}, "dest": 0}],
             "init": 0}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    prog = d / "p.imp"
    prog.write_text(gen.render_file(PROGRAM, "test"), encoding="utf-8")
    aut = d / "a.json"
    aut.write_text(json.dumps(AUTOMATON), encoding="utf-8")
    return str(prog), str(aut)


def _drop_first_member(out):
    data = json.loads(out)
    node = next(n for n in data["nodes"] if len(n["members"]) > 1)
    node["members"] = node["members"][1:]
    return json.dumps(data)


def _drop_last_edge(out):
    data = json.loads(out)
    data["edges"].pop()
    return json.dumps(data)


def _wrong_final_state(out):
    rows = json.loads(out)
    rows[-1]["state"]["x"] = "null"
    return json.dumps(rows)


def _first_line_replaced(new):
    return lambda out: new + out.split("\n", 1)[1]


def _text_state(out):
    lines = out.splitlines(keepends=True)
    lines[-2] = lines[-2].replace("x=true", "x=null").replace("x=false", "x=null")
    return "".join(lines)


STATE_ARGS = ["--state", gen.state_arg(STATE), "--max-steps", "30"]
RUN = ref.run_program(PROGRAM, STATE, 30)
AUT = ref.program_automaton(PROGRAM)
CLOSED = ref.close(*AUT)
CLOSED_FILE = ref.close(*ref.automaton_from_json(AUTOMATON))

# (argv with "P" for the program and "A" for the automaton file, check,
#  expected value, corruption of stdout or None to corrupt the exit code)
CASES = [
    (["parse", "P"], ref.check_parse, gen.render(PROGRAM), lambda out: out.replace(":=", "=", 1)),
    (["run", "P", *STATE_ARGS], ref.check_run_text, RUN, _text_state),
    (["run", "P", *STATE_ARGS], ref.check_run_text, RUN, None),
    (["run", "P", *STATE_ARGS, "--trace-format", "json"], ref.check_run_json, RUN,
     _wrong_final_state),
    (["check", "sim", "P", *STATE_ARGS], ref.check_sim, RUN,
     lambda out: out.replace(f"sim: {RUN[1]} ", f"sim: {RUN[1] - 1} ")),
    (["compile", "P"], ref.check_compile_json, AUT, _drop_last_edge),
    (["compile", "P", "--numbered"], ref.check_compile_numbered, AUT, _drop_last_edge),
    (["compile", "P", "--format", "dot"], ref.check_compile_dot, AUT,
     lambda out: out.replace("  n1 [", "  x1 [")),
    (["tauclose", "P"], ref.check_closed_json, CLOSED, _drop_first_member),
    (["tauclose", "--automaton", "A"], ref.check_closed_json, CLOSED_FILE, _drop_first_member),
    (["check", "closure", "P"], ref.check_closure, None,
     _first_line_replaced("nodes closed: FAIL\n")),
    (["check", "tausim", "P"], ref.check_tausim, CLOSED, lambda out: out.replace("ok", "FAIL")),
    (["check", "tausim", "--automaton", "A"], ref.check_tausim, CLOSED_FILE,
     lambda out: out.replace(" related", "1 related")),
    (["check", "regular", "--automaton", "A"], ref.check_regular, None,
     lambda out: out.replace("ok", "FAIL")),
]


@pytest.mark.parametrize("argv, check, expect, corrupt", CASES,
                         ids=[f"{c[1].__name__}-{i}" for i, c in enumerate(CASES)])
def test_check_accepts_real_output_and_rejects_a_corrupted_one(files, argv, check, expect, corrupt):
    prog, aut = files
    argv = [prog if a == "P" else aut if a == "A" else a for a in argv]
    job = workloads.Job("test", argv, check, expect)
    code, out, err, _dt = run.Runner(cli, [job]).execute(job)
    assert check(code, out, err, expect) is None
    if corrupt is None:
        assert check(code + 1, out, err, expect) is not None
    else:
        bad = corrupt(out)
        assert bad != out
        assert check(code, bad, err, expect) is not None


def test_runner_counts_a_corrupted_output_as_failed(files):
    prog, _ = files
    job = workloads.Job("parse", ["parse", prog], ref.check_parse, "skip")
    runner = run.Runner(cli, [job])
    runner.measure(0)
    assert runner.attempted == run.MIN_PASSES
    assert runner.failed == run.MIN_PASSES


# ---------------------------------------------------------- workloads

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(tmp_path, name):
    inputs = workloads.build(name, 3, tmp_path, tiny=True)
    runner = run.Runner(cli, inputs.jobs)
    runner.measure(0)
    assert runner.failures == []
    assert runner.failed == 0
    assert runner.attempted == run.MIN_PASSES * len(inputs.jobs)
    assert all(d is not None and d is not False for d in runner.digest), \
        "every job's first output went through its oracle"


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("corpus", 5, tmp_path / "a", tiny=True)
    b = workloads.build("corpus", 5, tmp_path / "b", tiny=True)
    c = workloads.build("corpus", 6, tmp_path / "c", tiny=True)
    assert a.stats == b.stats
    assert sorted(p.read_text() for p in (tmp_path / "a").iterdir()) == \
        sorted(p.read_text() for p in (tmp_path / "b").iterdir())
    assert a.stats != c.stats


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(2000) == 99
    assert run.tail_percentile(48) == 75
    assert run.tail_percentile(12) == 50


# ------------------------------------------------------------- tracing

def test_traced_closure_run_reports_every_layer(tmp_path):
    inputs = workloads.build("closure", 1, tmp_path / "in", tiny=True)
    runner = run.Runner(cli, inputs.jobs)
    originals = (cli.close_automaton, tauclose.close_automaton, ast.print_program)
    metrics, details = run.per_layer(runner, 0, tmp_path / "spans.jsonl")
    assert (cli.close_automaton, tauclose.close_automaton, ast.print_program) == originals
    declared = [m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    assert list(metrics) == declared
    value = {k: v for k, (v, _unit) in metrics.items()}
    assert value["tauclose.close_automaton.calls_per_tausim"] == 2.0
    assert value["automaton.nodes_closed.calls_per_check"] == 2.0
    assert value["cli.jobs"] == len(inputs.jobs)
    assert value["tauclose.closed_edges"] > 0
    assert value["tauclose.close_automaton.scaling_exponent"] > 1
    assert value["formats.load_automaton.s"] > 0
    assert value["tauclose.close_automaton.peak_mb"] > 0
    assert runner.failed == 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == details["spans"]
    nested = [s for s in spans if s[0] == "tauclose.close_automaton" and s[3] >= 0
              and spans[s[3]][0] == "tauclose.check_tau_simulation"]
    assert nested, "the close inside check_tau_simulation is a child span"


def test_slope_of_a_power_law():
    assert tracing._slope([(x, 3 * x ** 2) for x in (2, 4, 8, 16)]) == pytest.approx(2.0)


# ------------------------------------------------------ bare directory

def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
