"""The benchmark's workloads: data shape, group split and CLI command.

Shapes follow the paper's datasets (TCRED, LSAC, LFW); the data itself is
synthetic because the real CSVs are not bundled. LSAC's width of 11 is an
assumption: only its row and group counts are fixed by the repository.
"""

from __future__ import annotations

from dataclasses import dataclass

SENSITIVE_COL = "group"
LABELS = ("g0", "g1")  # first label names the larger group


@dataclass(frozen=True)
class Workload:
    name: str
    n_a: int         # rows of the larger group
    n_b: int         # rows of the smaller group
    d: int           # feature columns
    command: str     # "sweep" or "fit"
    rank: int        # --max-rank for a sweep, --rank for a fit
    method: str | None
    balanced: bool

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    def cli_args(self, csv_path: str, output: str) -> list[str]:
        args = [self.command, "--input", csv_path, "--sensitive-col", SENSITIVE_COL]
        if self.command == "sweep":
            args += ["--max-rank", str(self.rank)]
        else:
            args += ["--method", self.method, "--rank", str(self.rank)]
        if self.balanced:
            args.append("--balanced")
        return args + ["--output", output]


# tcred-sweep stops at rank 3, not the paper's 10: a rank-10 sweep takes
# 20-34 s on a shared 2-vCPU Xeon, so a 50 s run held one sample; at rank 3
# it holds about five, and every code path of the sweep still runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tcred-sweep", 24615, 5385, 23, "sweep", 3, None, False),
        Workload("lsac-fit", 24761, 1790, 11, "fit", 5, "cfpca", True),
        Workload("wide-fit", 2018, 582, 48, "fit", 10, "ufpca", False),
    )
}
