"""README's examples run as written: the Python API block, the shell block of
five commands, and the tie-break paragraph's claim that two eval commands
write the same report."""

import pathlib
import re

import pytest

from imaxcal.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The shell block run in one directory: (that directory, exit codes)."""
    (block,) = [b for b in _blocks("sh") if "imaxcal synth" in b]
    commands = [line for line in block.splitlines() if line.startswith("imaxcal ")]
    root = tmp_path_factory.mktemp("readme")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        codes = [main(command.split()[1:]) for command in commands]
    return root, codes


def test_the_python_api_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_the_shell_block_runs(demo):
    root, codes = demo
    assert codes == [0] * 5
    for name in ("demo-scores.csv", "demo-labels.csv", "bundle.json", "calibrated.csv",
                 "report.json"):
        assert (root / name).stat().st_size > 0, name


def test_the_tie_break_paragraph_holds(demo):
    # the paragraph's two commands, quoted inline, write the same JSON report
    root, _ = demo
    text = README.read_text()
    paragraph = text[text.index("`eval --tie-break raw-logit`"):]
    paragraph = paragraph[: paragraph.index("\n\n")]
    # inline code may wrap over lines, so each command splits on any whitespace
    commands = [c for c in re.findall(r"`(eval\s[^`]*)`", paragraph) if ".csv" in c]
    assert len(commands) == 2, commands
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for i, command in enumerate(commands):
            assert main([*command.split(), "-o", f"tie-{i}.json"]) == 0
    assert (root / "tie-0.json").read_bytes() == (root / "tie-1.json").read_bytes()
