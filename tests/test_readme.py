"""The README's CLI examples and Library snippet run as written."""

import ast
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from bggkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, fence):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{fence}\n(.*?)```", section, re.S).group(1)


def _cli_lines():
    text = _block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def _run(capsys, argv):
    assert argv[0] == "bggkit"
    code = cli.main(argv[1:])
    return code, capsys.readouterr().out


def test_every_cli_example_exits_0(capsys):
    lines = _cli_lines()
    assert len(lines) == 11
    for argv in lines:
        assert _run(capsys, argv)[0] == 0, argv


def test_commented_cli_results(capsys):
    lines = {" ".join(argv[1:4]): argv for argv in _cli_lines()}
    assert _run(capsys, lines["kostant --type A2"]) == (0, "3\n")
    code, out = _run(capsys, lines["block --type A1"])
    report = json.loads(out)
    assert code == 0
    assert report["D"] == [[1, 1], [0, 1]]
    assert report["C"] == [[1, 1], [1, 2]]


def test_library_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library", "python"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    # the two commented results: D is 6 x 6 unitriangular and C = D^T D
    d, c = ast.literal_eval(lines[0]), ast.literal_eval(lines[1])
    assert [len(row) for row in d] == [6] * 6
    assert all(d[i][j] == (i == j) for i in range(6) for j in range(i + 1))
    assert c == tuple(tuple(sum(d[k][i] * d[k][j] for k in range(6)) for j in range(6))
                      for i in range(6))
