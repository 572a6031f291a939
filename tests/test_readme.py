import re
import shlex
from pathlib import Path

from ledc.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert capsys.readouterr().out.split() == ["5", "True"]


def test_readme_command_line_session_replays(tmp_path, monkeypatch, capsys):
    """Each `$ ledc ...` line of the Command line section exits 0 and prints exactly the lines shown under it.

    The `$ cat structure.json` block supplies the structure file; the session runs in one directory, so
    `construct` writes the code.json that later commands read.
    """
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line\n")
    section = text[start : text.index("\n## ", start)]
    steps = []  # (command line, lines it prints)
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for command, shown in steps:
        argv = shlex.split(command)
        if argv[0] == "cat":
            Path(argv[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
            continue
        assert argv[0] == "ledc", command
        assert run(argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == shown, command
        ran += 1
    assert ran == 6
