"""One-off traced pass that re-measures the per-layer baseline table.

Builds `complete:1500` and `multipartite:300,400,500`, assembles each under
the inverse-sum-indeg weight, solves it and checks connectivity, with the
benchmark's tracer installed, and prints the median self time of each stage
over a few repetitions as a Markdown table.  Run from the repository root:

    python3 bench/baseline.py
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("complete:1500", "multipartite:300,400,500")
REPEATS = 3


def main() -> int:
    from run import BLAS_THREADS, BLAS_VARS, SRC

    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    from phispec import graphs, matrices, spectra, weights
    from tracing import Tracer

    stages = ("graphs.build", "matrices.assemble", "spectra.eigensolve",
              "graphs.connectivity")
    print(f"BLAS threads {threads}, median of {REPEATS} traced repetitions\n")
    print("| graph | edges | build | assemble | eigvalsh | connectivity |")
    print("|---|---:|---:|---:|---:|---:|")
    for text in FAMILIES:
        samples = {stage: [] for stage in stages}
        for _ in range(REPEATS):
            tracer = Tracer()
            tracer.prepare()
            tracer.install()
            try:
                g = graphs.build_family(graphs.parse_family(text))
                spectra.eigenvalues_sym(matrices.assemble(g, weights.get_weight("isi")))
                graphs.is_connected(g)
            finally:
                tracer.uninstall()
            self_time, _ = tracer.stage_times()
            for stage in stages:
                samples[stage].append(self_time[stage])
            edges = g.m
            del g
            gc.collect()
        cells = " | ".join(f"{statistics.median(samples[s]):.3f} s" for s in stages)
        print(f"| `{text}` | {edges} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
