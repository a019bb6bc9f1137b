"""What ``import fairdim`` does to the process: it sets OpenBLAS's idle-spin
timeout before numpy loads, unless the caller already set it. Each test runs
in a fresh interpreter, since this process loaded numpy long ago."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
VAR = "OPENBLAS_THREAD_TIMEOUT"

# records the variable at the moment numpy is first looked up
_SPY = f"""
import os, sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get({VAR!r}))
        return None

sys.meta_path.insert(0, Spy())
import fairdim
assert "numpy" in sys.modules
print(seen[0], os.environ.get({VAR!r}))
"""

# CPU ticks of every thread but the main one, summed, in seconds
_WORKER_CPU = """
import os
import fairdim
total = 0
for tid in os.listdir("/proc/self/task"):
    if tid != str(os.getpid()):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            stat = fh.read()
        fields = stat[stat.rindex(")") + 2:].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
print(total / os.sysconf("SC_CLK_TCK"))
"""


def python(*argv, exported=None, cwd=None):
    """Run a fresh interpreter on the package sources, with the variable
    set to ``exported``, or unset when None. Returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = str(SRC)
    if exported is not None:
        env[VAR] = exported
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True,
        encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("exported, expected", [(None, "22"), ("12", "12")])
def test_timeout_is_set_before_numpy_loads(exported, expected):
    assert python("-c", _SPY, exported=exported).split() == [expected, expected]


def _blas_is_openblas() -> bool:
    if "mode" not in inspect.signature(np.show_config).parameters:
        return False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_idle_workers_do_not_spin():
    # at OpenBLAS's default, 28, the idle worker burns 0.05-0.06 s on a 2-vCPU Xeon
    assert float(python("-c", _WORKER_CPU)) < 0.02


def test_reports_do_not_depend_on_timeout(tmp_path):
    python("-m", "fairdim.cli", "gen", "--out", "s1.csv", cwd=tmp_path)
    for tag, exported in (("unset", None), ("28", "28")):
        python("-m", "fairdim.cli", "sweep", "--input", "s1.csv", "--sensitive-col", "group",
               "--max-rank", "2", "--output", f"{tag}.jsonl", exported=exported, cwd=tmp_path)
    for suffix in (".jsonl", ".csv"):
        unset = (tmp_path / f"unset{suffix}").read_bytes()
        assert unset
        assert unset == (tmp_path / f"28{suffix}").read_bytes()
