"""The README's quick tour and command lines run as printed, and the quick
tour uses exactly the package exports."""

import ast
import contextlib
import io
import re
import shlex
import types
from pathlib import Path

import zippersem
from zippersem import cli

README = Path(__file__).parent.parent / "README.md"


def _block(heading, language):
    """The first code block under a README heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^## {heading}\n\n```{language}\n(.*?)^```$", text,
                     re.M | re.S).group(1)


def test_quick_tour_prints_its_comments():
    block = _block("Quick tour", "python")
    expected = [line.split("# ", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["step-limit", "8 8", "True", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_package_exports_the_quick_tour_and_parse_error():
    tour = ast.parse(_block("Quick tour", "python"))
    imported = [alias.name for node in ast.walk(tour)
                if isinstance(node, ast.ImportFrom) and node.module == "zippersem"
                for alias in node.names]
    assert sorted(zippersem.__all__) == sorted(imported + ["ParseError"])
    public = {name for name, value in vars(zippersem).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(zippersem.__all__)
    for name in zippersem.__all__:
        assert getattr(zippersem, name).__module__.startswith("zippersem.")


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    # run in order: an early line writes the automaton a later one reads
    lines = _block("Command line", "sh").splitlines()
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.imp").write_text(
        "x := true; while (x) { y := false; x := false }\n", encoding="utf-8")
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "zippersem"
        assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
        capsys.readouterr()
