"""Command line behavior: outputs and exit codes."""

import gc
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from randgen import random_program
from zippersem import automaton, cli, formats, semantics, tauclose
from zippersem.ast import FALSE, TRUE, parse_program, print_program
from zippersem.cli import main

LOOP_SRC = "while (true) { x := true; y := false }\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_prints_canonical_form(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "x:=true ;//c\n skip")
    assert main(["parse", f]) == 0
    assert capsys.readouterr().out == "x := true; skip\n"


def test_parse_ast_dump(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    assert main(["parse", f, "--ast"]) == 0
    assert capsys.readouterr().out == "Skip()\n"


def test_parse_error_exits_2(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "x := y")
    assert main(["parse", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1, column 6")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse", "/nonexistent/p.imp"]) == 2
    assert "error" in capsys.readouterr().err
    # an empty automaton or output name is a file that cannot be opened,
    # not no name
    with pytest.raises(OSError) as expected:
        open("", encoding="utf-8")
    for command in (["tauclose"], ["check", "regular"], ["check", "tausim"]):
        assert main(command + ["--automaton", ""]) == 2
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")
    f = write(tmp_path, "p.imp", LOOP_SRC)
    for command in ("compile", "tauclose"):
        assert main([command, f, "-o", ""]) == 2
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")


def test_program_file_with_a_byte_order_mark_parses(tmp_path, capsys):
    # some editors start UTF-8 files with U+FEFF
    f = write(tmp_path, "bom.imp", "\ufeffx := true; skip\n")
    assert main(["parse", f]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x := true; skip\n"
    assert captured.err == ""


def test_automaton_file_with_a_byte_order_mark_loads(tmp_path, capsys,
                                                     fixtures_dir):
    text = (fixtures_dir / "silent_fork.json").read_text(encoding="utf-8")
    f = write(tmp_path, "bom.json", "\ufeff" + text)
    assert main(["check", "tausim", "--automaton", f]) == 0
    assert capsys.readouterr().out == \
        "tausim: 7 related pairs checked, ok\n"


def test_run_text_trace_and_status(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    assert main(["run", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "0: init | ↓skip @ @top | {}",
        "1: SEmpty | ↑skip @ @top | {}",
        "status: terminated",
    ]


def test_run_stuck_exits_3(tmp_path, capsys):
    f = write(tmp_path, "stuck.imp", "if (b) { skip } else { skip }")
    assert main(["run", f]) == 3
    out = capsys.readouterr().out
    assert "status: stuck" in out and "null" in out


def test_run_step_limit_exits_4(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["run", f, "--max-steps", "4"]) == 4
    assert "status: step-limit" in capsys.readouterr().out


def test_run_initial_state(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "if (b) { x := true } else { skip }")
    assert main(["run", f, "--state", "b=true"]) == 0
    assert "x=true" in capsys.readouterr().out


def test_run_rejects_bad_state(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    assert main(["run", f, "--state", "b=banana"]) == 2
    assert main(["run", f, "--state", "tr ue=true"]) == 2
    assert main(["run", f, "--state", "b"]) == 2


def test_run_json_trace(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["run", f, "--max-steps", "4", "--trace-format", "json"]) == 4
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [r["step"] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[3]["state"] == {"x": "true"}
    assert captured.err == "status: step-limit\n"


def test_run_writes_its_trace_in_slices(tmp_path, monkeypatch, capsys):
    # a trace of over a million characters goes out in slices of at most
    # _CHUNK characters, as every large output does, not as one string
    # encoded whole; the JSON run's status line goes to stderr
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, s):
            self.writes.append(s)

    f = write(tmp_path, "loop.imp", LOOP_SRC)
    trace = semantics.run_trace(parse_program(LOOP_SRC), {}, 20000)
    for fmt, text, status in (
            ("text", formats.trace_text(trace), "status: step-limit\n"),
            ("json", formats.trace_json_text(trace), "")):
        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["run", "--max-steps", "20000", "--trace-format", fmt,
                     f]) == 4
        assert len(text) > cli._CHUNK
        assert max(map(len, out.writes)) <= cli._CHUNK
        assert "".join(out.writes) == text + status
    assert capsys.readouterr().err == "status: step-limit\n"


def test_run_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch,
                                                 capsys):
    def exhausted(trace):
        raise MemoryError
    monkeypatch.setattr(formats, "trace_text", exhausted)
    f = write(tmp_path, "p.imp", "skip")
    assert main(["run", f]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_compile_json(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["compile", f]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 8 and len(data["edges"]) == 8
    assert data["init"] == 0


def test_compile_dot(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["compile", f, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph automaton {")
    assert "__init -> n0;" in out


def test_compile_numbered(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    assert main(["compile", f, "--numbered"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nodes"] == [{"id": 0, "label": "@top ↓"},
                             {"id": 1, "label": "@top ↑"}]
    assert main(["compile", f, "--numbered", "--format", "dot"]) == 0
    assert 'n0 [label="0: @top ↓"];' in capsys.readouterr().out


def test_compile_to_output_file(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    out = tmp_path / "aut.json"
    assert main(["compile", f, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["init"] == 0


def test_tauclose_program(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["tauclose", f]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(e["action"]["kind"] == "assign" for e in data["edges"])
    assert all("members" in n for n in data["nodes"])


def test_tauclose_automaton_file(tmp_path, capsys, fixtures_dir):
    assert main(["tauclose", "--automaton",
                 str(fixtures_dir / "silent_fork.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nodes"][0]["members"] == [0, 1, 2]
    assert len(data["edges"]) == 6


def test_tauclose_dot(tmp_path, capsys, fixtures_dir):
    assert main(["tauclose", "--automaton",
                 str(fixtures_dir / "silent_fork.json"), "--format", "dot"]) == 0
    assert '[label="{0,1,2}"];' in capsys.readouterr().out


def test_tauclose_warns_on_irregular_input(tmp_path, capsys):
    bad = write(tmp_path, "irr.json", json.dumps(
        {"nodes": [1],
         "edges": [{"source": 1, "action": {"kind": "none"}, "dest": 2}],
         "init": 1}))
    assert main(["tauclose", "--automaton", bad]) == 0
    assert "not regular" in capsys.readouterr().err


def test_tauclose_requires_an_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tauclose"])
    assert exc.value.code == 2


def test_a_program_file_and_automaton_together_exit_2(tmp_path, capsys,
                                                     fixtures_dir):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    fork = str(fixtures_dir / "silent_fork.json")
    for command in (["tauclose"], ["check", "regular"], ["check", "tausim"]):
        # the file before or after the option, whose value may be empty
        for argv in (command + [f, "--automaton", fork],
                     command + ["--automaton", fork, f],
                     command + [f, "--automaton", ""],
                     command + ["--automaton", "", f]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            name = "zippersem " + " ".join(command)
            assert captured.err.startswith(f"usage: {name} ")
            assert f"{name}: error: give a program file or --automaton, " \
                "not both" in captured.err


def test_tauclose_rejects_malformed_json(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    assert main(["tauclose", "--automaton", bad]) == 2
    missing_bits = write(tmp_path, "half.json", json.dumps({"nodes": [1]}))
    assert main(["tauclose", "--automaton", missing_bits]) == 2


def test_deeply_nested_automaton_json_exits_2(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    for text in (deep, '{"nodes": [1], "edges": [], "init": ' + deep + "}"):
        f = write(tmp_path, "deep.json", text)
        for argv in (["tauclose", "--automaton", f],
                     ["check", "tausim", "--automaton", f],
                     ["check", "regular", "--automaton", f]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: automaton JSON is nested too deeply\n"


def test_assignment_to_an_invalid_name_exits_2(tmp_path, capsys):
    for var in ("", "if", "true", "1x", "x y", "_x"):
        f = write(tmp_path, "bad.json", json.dumps(
            {"nodes": [1], "init": 1, "edges": [
                {"source": 1, "dest": 1, "action":
                 {"kind": "assign", "var": var, "val": "true"}}]}))
        for argv in (["tauclose", "--automaton", f],
                     ["check", "regular", "--automaton", f]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad action")


def test_check_sim(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["check", "sim", f, "--max-steps", "60"]) == 0
    assert "sim: 60 steps matched" in capsys.readouterr().out


def test_check_sim_reports_a_semantics_the_automaton_does_not_match(
        tmp_path, capsys, monkeypatch):
    sem_step = semantics.sem_step

    def negating_sem_step(cfg):
        # SAssign binds the negated value
        result = sem_step(cfg)
        if result is None or result[1] != "SAssign":
            return result
        (cursor, state), rule = result
        name = cfg.cursor.focus.name
        negated = {TRUE: FALSE, FALSE: TRUE}[state[name]]
        return semantics.Config(cursor, {**state, name: negated}), rule

    monkeypatch.setattr(semantics, "sem_step", negating_sem_step)
    src = "x := true; y := false"
    report = automaton.check_simulation(parse_program(src), {})
    assert report.steps_checked == 1 and report.violation[0] == 1
    f = write(tmp_path, "p.imp", src)
    assert main(["check", "sim", f]) == 5
    assert capsys.readouterr().out == (
        "sim: 1 steps matched, trace status terminated\n"
        "violation at step 1: no edge from seqL ↓ to seqL ↑ with matching "
        "action\n")


def test_check_sim_rejects_automaton_flag(tmp_path, capsys):
    bad = write(tmp_path, "a.json", "{}")
    with pytest.raises(SystemExit):
        main(["check", "sim", "--automaton", bad])


def test_check_kinds_refuse_options_they_do_not_read(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    a = write(tmp_path, "a.json", "{}")
    # before an optional file, argparse binds the option's value to the
    # file and leaves the file over; the error names the option alone
    for argv in (["check", "closure", f, "--state", "x=true"],
                 ["check", "tausim", f, "--max-steps", "5"],
                 ["check", "tausim", "--max-steps", "5", f],
                 ["check", "regular", "--state", "x=true", f],
                 ["check", "sim", "--automaton", a]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: zippersem check {argv[1]} ")
        option = next(arg for arg in argv if arg.startswith("--"))
        assert captured.err.endswith(f"error: unrecognized arguments: {option}\n")


@pytest.mark.parametrize("doc", [
    # node true would merge with node 1, and node 2 would get id 1
    {"nodes": [1, True, 2], "init": True, "edges": [
        {"source": 1, "dest": 2,
         "action": {"kind": "assign", "var": "x", "val": "true"}},
        {"source": True, "action": {"kind": "none"}, "dest": 2}]},
    {"nodes": [0, 1.0], "edges": [], "init": False},
    {"nodes": [1], "edges": [
        {"source": 1.0, "action": {"kind": "none"}, "dest": 1}], "init": 1},
])
def test_ids_equal_across_json_types_exit_2(tmp_path, capsys, doc):
    f = write(tmp_path, "a.json", json.dumps(doc))
    for argv in (["tauclose", "--automaton", f],
                 ["check", "tausim", "--automaton", f],
                 ["check", "regular", "--automaton", f]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "of another type" in captured.err


def test_check_closure(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["check", "closure", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "nodes closed: ok", "edges closed: ok", "step image closed: ok"]


def test_check_regular(tmp_path, capsys):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["check", "regular", f]) == 0
    bad = write(tmp_path, "irr.json", json.dumps(
        {"nodes": [1],
         "edges": [{"source": 1, "action": {"kind": "none"}, "dest": 2}],
         "init": 1}))
    assert main(["check", "regular", "--automaton", bad]) == 5
    assert "regular: FAIL" in capsys.readouterr().out


def test_check_tausim(tmp_path, capsys, fixtures_dir):
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["check", "tausim", f]) == 0
    assert "tausim: 22 related pairs checked, ok" in capsys.readouterr().out
    assert main(["check", "tausim", "--automaton",
                 str(fixtures_dir / "silent_fork.json")]) == 0
    assert "tausim: 7 related pairs checked, ok" in capsys.readouterr().out


def test_check_tausim_violation_exits_5(tmp_path, capsys):
    bad = write(tmp_path, "irr.json", json.dumps(
        {"nodes": [1],
         "edges": [{"source": 1, "action": {"kind": "none"}, "dest": 2}],
         "init": 1}))
    assert main(["check", "tausim", "--automaton", bad]) == 5
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "unmatched edge" in captured.out
    assert "(node 1 in {1}, edge to 2)" in captured.out
    assert "not regular" in captured.err


def test_run_and_check_sim_reject_a_negative_step_limit(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    for argv in (["run", f, "--max-steps", "-5"],
                 ["check", "sim", f, "--max-steps", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--max-steps must not be negative" in capsys.readouterr().err


def test_state_binding_a_name_twice_exits_2(tmp_path, capsys):
    f = write(tmp_path, "p.imp", "skip")
    assert main(["run", f, "--state", "x=true,x=false"]) == 2
    assert main(["check", "sim", f, "--state", "x=true, x=true"]) == 2
    assert "more than once" in capsys.readouterr().err


def test_automaton_with_unhashable_ids_exits_2(tmp_path, capsys):
    silent = {"kind": "none"}
    bad_inputs = [
        {"nodes": [[1]], "edges": [], "init": 0},
        {"nodes": [{"id": [1]}], "edges": [], "init": 0},
        {"nodes": [1], "edges": [{"source": [1], "action": silent, "dest": 1}],
         "init": 1},
        {"nodes": [1], "edges": [{"source": 1, "action": silent, "dest": {}}],
         "init": 1},
        {"nodes": [1], "edges": [], "init": [1]},
        {"nodes": [1], "edges": [{"source": 1, "dest": 1, "action":
                                  {"kind": "assign", "var": [1], "val": "true"}}],
         "init": 1},
    ]
    for data in bad_inputs:
        f = write(tmp_path, "bad.json", json.dumps(data))
        for argv in (["tauclose", "--automaton", f],
                     ["check", "tausim", "--automaton", f],
                     ["check", "regular", "--automaton", f]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")


def test_automaton_with_mixed_int_and_string_ids_closes(tmp_path, capsys):
    assign = {"kind": "assign", "var": "x", "val": "true"}
    one_edge = write(tmp_path, "one.json", json.dumps(
        {"nodes": [0, "a"], "edges": [{"source": 0, "action": assign, "dest": "a"}],
         "init": 0}))
    assert main(["tauclose", "--automaton", one_edge]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [n["members"] for n in data["nodes"]] == [[0], [1]]
    silent = write(tmp_path, "silent.json", json.dumps(
        {"nodes": ["a", 0, None, 2.5],
         "edges": [{"source": "a", "action": {"kind": "none"}, "dest": 0},
                   {"source": 0, "action": {"kind": "none"}, "dest": None},
                   {"source": "a", "action": assign, "dest": 2.5},
                   {"source": 2.5, "action": assign, "dest": "a"}],
         "init": "a"}))
    assert main(["tauclose", "--automaton", silent]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [n["members"] for n in data["nodes"]] == [[0, 1, 2], [1, 2], [2], [3]]
    # numbers rank before strings before null: {0, "a", null} < {2.5}
    assert [(e["source"], e["dest"]) for e in data["edges"]] == [(0, 3), (3, 0)]
    assert main(["check", "tausim", "--automaton", silent]) == 0
    assert main(["tauclose", "--automaton", silent, "--format", "dot"]) == 0


def test_tauclose_with_init_outside_the_node_list_exits_2(tmp_path, capsys):
    f = write(tmp_path, "foreign.json", json.dumps(
        {"nodes": [1, 2],
         "edges": [{"source": 1, "action": {"kind": "none"}, "dest": 2}],
         "init": 7}))
    for fmt in ("json", "dot"):
        assert main(["tauclose", "--automaton", f, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not regular" in captured.err
        assert "error: " in captured.err


def test_check_tausim_closes_the_automaton_once(tmp_path, capsys, monkeypatch,
                                                fixtures_dir):
    calls = []
    original = tauclose._closures

    def counted(succ):
        calls.append(succ)
        return original(succ)

    monkeypatch.setattr(tauclose, "_closures", counted)
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    assert main(["check", "tausim", f]) == 0
    assert len(calls) == 1
    assert main(["check", "tausim", "--automaton",
                 str(fixtures_dir / "silent_fork.json")]) == 0
    assert len(calls) == 2
    # an initial node outside the node list is reported before any close
    foreign = write(tmp_path, "foreign.json", json.dumps(
        {"nodes": [1, 2],
         "edges": [{"source": 1, "action": {"kind": "none"}, "dest": 2}],
         "init": 7}))
    capsys.readouterr()
    assert main(["check", "tausim", "--automaton", foreign]) == 5
    captured = capsys.readouterr()
    assert captured.out == ("tausim: 0 related pairs checked, FAIL\n"
                            "violation: initial nodes are not related\n")
    assert captured.err == "warning: input automaton is not regular\n"
    assert len(calls) == 2


def test_check_closure_steps_each_node_twice(tmp_path, capsys, monkeypatch):
    # held, so the command's hash-consed cursors are these objects
    nodes = automaton.program_automaton(parse_program(LOOP_SRC)).nodes
    calls = Counter()
    original = automaton.step_image

    def counted(cur):
        calls[cur] += 1
        return original(cur)

    monkeypatch.setattr(automaton, "step_image", counted)
    f = write(tmp_path, "loop.imp", LOOP_SRC)
    # once to compile the automaton and once to check it
    assert main(["check", "closure", f]) == 0
    assert calls == Counter(dict.fromkeys(nodes, 2))


GOLDEN = [
    ("golden_compile_loop.json", ["compile", "LOOP"]),
    ("golden_compile_loop.dot", ["compile", "LOOP", "--format", "dot"]),
    ("golden_compile_loop_numbered.json", ["compile", "LOOP", "--numbered"]),
    ("golden_compile_loop_numbered.dot",
     ["compile", "LOOP", "--numbered", "--format", "dot"]),
    ("golden_tauclose_loop.json", ["tauclose", "LOOP"]),
    ("golden_tauclose_loop.dot", ["tauclose", "LOOP", "--format", "dot"]),
    ("golden_tauclose_silent_fork.json", ["tauclose", "--automaton", "FORK"]),
    ("golden_tauclose_silent_fork.dot",
     ["tauclose", "--automaton", "FORK", "--format", "dot"]),
]


@pytest.mark.parametrize("golden, argv", GOLDEN, ids=[g for g, _ in GOLDEN])
def test_output_matches_the_golden_file(tmp_path, capsys, fixtures_dir,
                                        golden, argv):
    inputs = {"LOOP": write(tmp_path, "loop.imp", LOOP_SRC),
              "FORK": str(fixtures_dir / "silent_fork.json")}
    assert main([inputs.get(a, a) for a in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (fixtures_dir / golden).read_bytes()
    assert captured.err == ""


def _nested(depth):
    """`x := true` wrapped `depth` times in `while (a) { ...; y := false }`."""
    return "while (a) { " * depth + "x := true" + "; y := false }" * depth


def test_deep_programs_run_at_the_default_recursion_limit(tmp_path, capsys):
    limit = sys.getrecursionlimit()
    nest = write(tmp_path, "nest.imp", _nested(6000))
    assert main(["parse", nest, "--ast"]) == 0
    assert capsys.readouterr().out == (
        "While(test=Var(name='a'), body=Seq(first=" * 6000
        + "Assign(name='x', value=Bool(value=True))"
        + ", second=Assign(name='y', value=Bool(value=False))))" * 6000 + "\n")
    assert main(["check", "sim", nest, "--state", "a=true"]) == 0
    assert capsys.readouterr().out == \
        "sim: 10000 steps matched, trace status step-limit\n"
    assert main(["check", "closure", nest]) == 0
    assert capsys.readouterr().out.count(": ok") == 3
    assert main(["check", "regular", nest]) == 0
    assert capsys.readouterr().out == "regular: ok\n"
    text = "; ".join(f"x{i % 10} := true" for i in range(21000))
    assert main(["parse", write(tmp_path, "chain.imp", text)]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert sys.getrecursionlimit() == limit


def test_loader_errors_echo_a_bounded_value(tmp_path, capsys):
    huge = list(range(100000))
    silent = {"kind": "none"}
    cases = [
        ({"nodes": [1], "edges": [], "init": huge},
         "error: init is not a valid node id: [0, 1, 2, 3, 4, 5, ...]"),
        ({"nodes": [{"label": huge}], "edges": [], "init": 1},
         "error: node object without id: {'label': [0, 1, 2, 3, 4, 5, ...]}"),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "junk": huge}],
          "init": 1}, "error: bad edge: {'dest': 1, 'junk': [0, 1, 2, "),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "action":
                                   {"kind": "assign", "var": "x", "val": huge}}],
          "init": 1}, "error: expected one of true, false, null: [0, 1, "),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "action":
                                   {"kind": huge}}], "init": 1},
         "error: bad action: {'kind': [0, 1, 2, 3, 4, 5, ...]}"),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "action": silent,
                                   "x": 1}, {"source": 1, "action": silent}],
          "init": 1},
         "error: bad edge: {'source': 1, 'action': {'kind': 'none'}}\n"),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "action":
                                   {"kind": "assign", "var": "if",
                                    "val": "true"}}], "init": 1},
         "error: bad action: {'kind': 'assign', 'var': 'if', 'val': 'true'}\n"),
        ({"nodes": [1], "edges": [{"source": 1, "dest": 1, "action":
                                   {"kind": "assign", "var": "...",
                                    "val": "true"}}], "init": 1},
         "error: bad action: {'kind': 'assign', 'var': '...', 'val': 'true'}\n"),
    ]
    for data, prefix in cases:
        f = write(tmp_path, "big.json", json.dumps(data))
        assert main(["tauclose", "--automaton", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.encode()) < 200
    # a short literal that reprlib alone would cut keeps its full text
    prog = write(tmp_path, "p.imp", "skip")
    literal = "m" * 40
    assert main(["run", prog, "--state", f"x={literal}"]) == 2
    assert capsys.readouterr().err == (
        f"error: expected one of true, false, null: {literal!r}\n")


def test_an_unhashable_literal_keeps_its_loader_error(tmp_path, capsys):
    assign = {"kind": "assign", "var": "x", "val": "true"}
    bad = {"kind": "assign", "var": "x", "val": []}
    for actions in ([bad], [assign, bad], [assign, assign, bad, assign]):
        f = write(tmp_path, "bad.json", json.dumps(
            {"nodes": [1], "init": 1, "edges": [
                {"source": 1, "dest": 1, "action": a} for a in actions]}))
        for argv in (["tauclose", "--automaton", f],
                     ["check", "tausim", "--automaton", f]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: expected one of true, false, null: []\n"


def test_importing_the_cli_skips_dataclasses_and_inspect():
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import zippersem.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, encoding="utf-8", timeout=60,
                         check=True)
    assert res.stdout == "[]\n"


def test_main_calls_share_no_state(tmp_path, capsys, monkeypatch,
                                   fixtures_dir):
    built = []
    build_parser = cli.build_parser

    def counted_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_leaves", None)
    loop = write(tmp_path, "loop.imp", LOOP_SRC)
    stuck = write(tmp_path, "stuck.imp", "while (u) { skip }")
    fork = str(fixtures_dir / "silent_fork.json")
    out = tmp_path / "out.txt"
    argvs = [
        ["parse", loop], ["parse", loop, "--ast"],
        ["run", loop, "--max-steps", "7"],
        ["run", loop, "--state", "x=null,y=true", "--max-steps", "5",
         "--trace-format", "json"],
        ["run", stuck], ["run", stuck, "--state", "u=false"],
        ["compile", loop], ["compile", loop, "--format", "dot", "--numbered"],
        ["compile", loop, "--numbered", "-o", str(out)],
        ["tauclose", loop], ["tauclose", "--automaton", fork, "-o", str(out)],
        ["tauclose", "--automaton", fork, "--format", "dot"],
        ["check", "sim", loop, "--max-steps", "30", "--state", "x=false"],
        ["check", "closure", loop], ["check", "regular", loop],
        ["check", "regular", "--automaton", fork],
        ["check", "tausim", loop], ["check", "tausim", "--automaton", fork],
        ["frobnicate", loop], ["run", loop, "--max-steps", "-1"],
        ["tauclose"], ["check", "tausim"],
        ["check", "sim", "--automaton", fork],
        ["tauclose", loop, "--automaton", fork],
        ["-h"], ["check", "-h"], ["--", "parse", loop], ["parse", "--", loop],
    ]

    def outcome(argv):
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out.read_text(encoding="utf-8") if out.exists() else None
        return code, captured.out, captured.err, written

    first = [outcome(argv) for argv in argvs]
    second = [outcome(argv) for argv in reversed(argvs)][::-1]
    assert first == second
    assert {code for code, *_ in first} == {0, 2, 3, 4}
    assert built == [1]


def test_calls_leave_no_reference_cycles(tmp_path, capsys):
    # every command and every error path that returns an exit code frees
    # all it allocates by reference counting, so the cyclic collector finds
    # nothing after a call; argparse usage errors and help (SystemExit) are
    # left out: each formats a usage with a new argparse HelpFormatter, whose
    # _root_section.items hold bound methods of the formatter itself, so it
    # leaves a cycle (6 objects for `zippersem tauclose`, 31 for -h)
    rng = random.Random(6)
    programs = [write(tmp_path, f"p{i}.imp",
                      print_program(random_program(rng, max_size=40)))
                for i in range(20)]
    numbered = str(tmp_path / "numbered.json")
    bad_parse = write(tmp_path, "bad.imp", "x := y")
    unhashable = write(tmp_path, "unhashable.json", json.dumps(
        {"nodes": [[1]], "edges": [], "init": 0}))
    silent = {"kind": "none"}
    foreign = write(tmp_path, "foreign.json", json.dumps(
        {"nodes": [1, 2], "edges": [{"source": 1, "action": silent, "dest": 2}],
         "init": 7}))
    dangling = write(tmp_path, "dangling.json", json.dumps(
        {"nodes": [1], "edges": [{"source": 1, "action": silent, "dest": 2}],
         "init": 1}))

    def commands(f):
        return [
            ["parse", f], ["parse", f, "--ast"],
            ["run", f, "--max-steps", "50"],
            ["run", f, "--state", "x=true,y=null", "--max-steps", "50",
             "--trace-format", "json"],
            ["compile", f], ["compile", f, "--format", "dot", "--numbered"],
            ["compile", f, "--numbered", "-o", numbered],
            ["tauclose", f], ["tauclose", f, "--format", "dot"],
            ["tauclose", "--automaton", numbered],
            ["check", "sim", f, "--max-steps", "50"], ["check", "closure", f],
            ["check", "regular", f], ["check", "regular", "--automaton", numbered],
            ["check", "tausim", f], ["check", "tausim", "--automaton", numbered],
        ]

    errors = [(["parse", bad_parse], 2),
              (["tauclose", "--automaton", unhashable], 2),
              (["tauclose", "--automaton", foreign], 2),
              (["check", "tausim", "--automaton", dangling], 5)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in commands(programs[0]):
            main(argv)
        capsys.readouterr()
        gc.collect()
        for f in programs:
            for argv in commands(f):
                main(argv)
                capsys.readouterr()
                assert gc.collect() == 0, argv
        for argv, code in errors:
            assert main(argv) == code
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


# Command lines for the dispatch tests; P is a terminating program, A an
# automaton file.
DISPATCH_ARGVS = [
    # no command, or an unknown one
    [], ["P"], ["--version"], ["frobnicate", "P"], ["Parse", "P"],
    ["check"], ["check", "frob", "P"], ["check", "--state", "x=true", "sim", "P"],
    # help at every level
    ["-h"], ["--help"], ["-h", "parse", "P"], ["parse", "-h"], ["run", "--help"],
    ["compile", "-h"], ["tauclose", "-h"], ["parse", "P", "-h"], ["check", "-h"],
    ["check", "sim", "-h"], ["check", "closure", "--help"],
    ["check", "regular", "-h"], ["check", "tausim", "-h"],
    # -- before and after the command
    ["--", "parse", "P"], ["check", "--", "sim", "P"], ["parse", "--", "P"],
    ["check", "sim", "--", "P"], ["tauclose", "--", "P"],
    ["run", "P", "--", "--max-steps"],
    # options before an optional file
    ["tauclose", "--format", "dot", "P"], ["tauclose", "--automaton", "A", "P"],
    ["check", "tausim", "--max-steps", "5", "P"],
    ["check", "tausim", "--state", "x=true", "P"],
    ["check", "regular", "--automaton", "A", "P"],
    # missing, bad and extra values
    ["parse"], ["check", "closure"], ["tauclose", "--automaton"],
    ["run", "P", "--max-steps"], ["run", "P", "--state"], ["compile", "P", "-o"],
    ["compile", "P", "--format"], ["check", "sim", "P", "--max-steps"],
    ["run", "P", "--trace-format", "xml"], ["run", "P", "--max-steps", "x"],
    ["run", "P", "--max-steps", "-1"], ["parse", "P", "P"],
    ["check", "tausim", "P", "extra"], ["check", "sim", "--automaton", "A"],
    # lines that run, abbreviated options included
    ["parse", "P"], ["parse", "P", "--as"], ["run", "P", "--max", "3"],
    ["run", "P", "--max-steps=3", "--state", "x=true", "--trace-format", "json"],
    ["compile", "P", "--format", "dot", "--numbered"], ["tauclose", "P"],
    ["tauclose", "--automaton", "A", "--format", "dot"],
    ["check", "sim", "P", "--state", "x=true"], ["check", "closure", "P"],
    ["check", "regular", "--automaton", "A"], ["check", "tausim", "P"],
]

# the command words that select a leaf parser
COMMANDS = {("parse",), ("run",), ("compile",), ("tauclose",), ("check", "sim"),
            ("check", "closure"), ("check", "regular"), ("check", "tausim")}


class RecordingRoot:
    """Stands in for the root parser and records the lines it parses."""

    def __init__(self, parser):
        self.parser = parser
        self.parsed = []

    def parse_known_args(self, argv):
        self.parsed.append(argv)
        return self.parser.parse_known_args(argv)


@pytest.fixture
def dispatch(tmp_path, capsys, monkeypatch, fixtures_dir):
    """Run a DISPATCH_ARGVS line through main with a given leaf table."""
    paths = {"P": write(tmp_path, "p.imp",
                        "x := true; while (x) { y := false; x := false }"),
             "A": str(fixtures_dir / "silent_fork.json")}
    parser, leaves = cli.build_parser()
    root = RecordingRoot(parser)
    monkeypatch.setattr(cli, "_parser", root)

    def run(argv, table=leaves):
        monkeypatch.setattr(cli, "_leaves", table)
        try:
            code = main([paths.get(a, a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    run.root = root
    run.leaves = leaves
    return run


@pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_leaf_dispatch_matches_the_root_parser(dispatch, argv):
    assert dispatch(argv) == dispatch(argv, table={})


def test_only_lines_naming_no_command_reach_the_root_parser(dispatch):
    assert set(dispatch.leaves) == COMMANDS
    for argv in DISPATCH_ARGVS:
        del dispatch.root.parsed[:]
        dispatch(argv)
        named = (tuple(argv[:2]) if argv[:1] == ["check"]
                 else tuple(argv[:1])) in COMMANDS
        assert bool(dispatch.root.parsed) is not named, argv
