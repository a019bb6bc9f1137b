"""Print the interpreter, numpy and BLAS facts of this environment as JSON.

Run as a child with the same environment as the benchmarked CLI, so the
BLAS thread count is the one the CLI gets. Importing ``fairdim.cli`` also
compiles its bytecode before any timed invocation.
"""

from __future__ import annotations

import ctypes
import json
import platform

import numpy as np

import fairdim.cli  # noqa: F401  (warm-up import)

_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas_threads():
    """Ask the OpenBLAS library numpy loaded for its thread count."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": _blas_threads(),
            }
        )
    )


if __name__ == "__main__":
    main()
