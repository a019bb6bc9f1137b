"""The README's examples run as written: its Python blocks in order, in one
namespace, and its CLI block's commands."""

import re
import shlex
from pathlib import Path

from fairdim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(
        r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
    )
    assert blocks
    # the examples read the bundled dataset as `fairdim gen` writes it
    assert cli.main(["gen", "--out", str(tmp_path / "s1.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_block_runs(tmp_path, monkeypatch):
    # every `fairdim` line of the CLI section's shell block, with each
    # optional [...] group's flags given, exits 0 as written
    cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", cli_section, re.M | re.S)[1]
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    commands = [shlex.split(re.sub(r"\[([^]]*)\]", r"\1", line))[1:]
                for line in lines if line.startswith("fairdim")]
    assert {argv[0] for argv in commands} == {"gen", "fit", "sweep"}
    assert cli.main(["gen", "--out", str(tmp_path / "s1.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
