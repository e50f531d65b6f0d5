"""The README's quick tour runs as printed, on exactly the package exports."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import zippersem

README = Path(__file__).parent.parent / "README.md"


def _quick_tour():
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Quick tour\n\n```python\n(.*?)^```$", text,
                     re.M | re.S).group(1)


def test_quick_tour_prints_its_comments():
    block = _quick_tour()
    expected = [line.split("# ", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["step-limit", "8 8", "True", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_package_exports_the_quick_tour_and_parse_error():
    imported = [alias.name for node in ast.walk(ast.parse(_quick_tour()))
                if isinstance(node, ast.ImportFrom) and node.module == "zippersem"
                for alias in node.names]
    assert sorted(zippersem.__all__) == sorted(imported + ["ParseError"])
    public = {name for name, value in vars(zippersem).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(zippersem.__all__)
    for name in zippersem.__all__:
        assert getattr(zippersem, name).__module__.startswith("zippersem.")
