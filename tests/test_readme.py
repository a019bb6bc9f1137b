"""The README's Python examples run as written, in order, in one namespace."""

import re
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
