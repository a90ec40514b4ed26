"""README's command-line examples, run on the files README describes."""

import pathlib
import re

import numpy as np

from detcs import CaseTag
from detcs.cli import run
from detcs.matrixio import save_matrix

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# the worst log slacks depend on numpy's SIMD dispatch level (ROADMAP item 2)
SLACK = re.compile(r"worst log slack [^,]+,")


def code_blocks(text):
    return re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)


def examples():
    """(argv, expected stdout) for each README block that starts at a
    ``$ detcs`` prompt."""
    found = []
    for block in code_blocks(README.read_text()):
        command, _, output = block.partition("\n")
        if command.startswith("$ detcs "):
            found.append((command.split()[2:], output))
    return found


def test_readme_examples_print_their_blocks(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    # b.mat is the block under "Matrix files"; a.mat is eye(3, 2)
    (tmp_path / "b.mat").write_text(code_blocks(text.split("### Matrix files", 1)[1])[0])
    save_matrix(tmp_path / "a.mat", np.eye(3, 2))
    save_matrix(tmp_path / "i3.mat", np.eye(3))
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, expected in examples():
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if argv[0] == "fuzz":
            out, expected = SLACK.sub("worst log slack *,", out), SLACK.sub("worst log slack *,", expected)
        assert out == expected, argv
        ran.append(argv[0])
    assert sorted(ran) == ["fuzz", "verify", "verify", "verify"]


def test_readme_library_example_runs(capsys):
    # the python block under "Library" prints a tag with its gap, then a
    # correlation
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", library, flags=re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    verdict, correlation = capsys.readouterr().out.splitlines()
    tag, gap = verdict.split()
    assert tag in {t.value for t in CaseTag}
    assert 0.0 <= float(gap) <= 1.0
    assert 0.0 <= float(correlation) <= 1.0
