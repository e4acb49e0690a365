"""phispec benchmark: one closed-loop client answering a seeded question stream.

Run from the repository root:

    python3 bench/run.py --workload family-dense --seed 1 --seconds 30 --trace 0

The client asks one question, waits for the answer, checks it, and only then
asks the next.  A question is one `phispec` command line run in-process
through `phispec.cli.main` with stdout captured, or, on oracle-crosscheck, one
cross-check of every route built from the library's public functions.  Only
`ask` is timed; building the question, checking the answer and collecting
garbage happen between questions, outside the timer.  Input files are written
before timing starts.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 each question is answered twice, untraced and then
traced, and the object holds the per-layer metrics.  Lines before it record
the environment and how the tail percentile was chosen.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1          # pinned, and capped at the number of processors
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 21        # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
SMOKE_QUESTIONS = 4
CUTOFF_SECONDS = 150      # a run stops asking after this long, whatever is left

# per-layer time metric -> the stage whose self time it sums
LAYER_TIMES = {
    "graphs.build_s": "graphs.build",
    "graphs.parse_s": "graphs.parse",
    "graphs.edit_s": "graphs.edit",
    "graphs.connectivity_s": "graphs.connectivity",
    "matrices.assemble_s": "matrices.assemble",
    "spectra.eigensolve_s": "spectra.eigensolve",
    "spectra.group_s": "spectra.group",
    "perturbation.self_s": "perturbation",
    "closedforms.eval_s": "closedforms",
    "exact.jacobi_s": "exact.jacobi",
    "exact.charpoly_s": "exact.charpoly",
    "cli.self_s": "cli",
}
# tracer counters, reported under their own names
LAYER_COUNTS = (
    ("graphs.edges", "count/question"),
    ("matrices.bytes_out", "bytes/question"),
    ("weights.phi_evals", "count/question"),
    ("spectra.solve_order_sum", "count/question"),
    ("exact.jacobi_order_sum", "count/question"),
)
# per-layer call metric -> the stage whose spans it counts
LAYER_CALLS = {
    "perturbation.calls": "perturbation",
    "closedforms.calls": "closedforms",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("family-dense", "edgelist-sparse", "oracle-crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time on the reference machine; sets how many "
                   "whole passes of questions a run answers")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"tiny graphs (n of about 50) and {SMOKE_QUESTIONS} questions; "
                   "checks that the harness runs, not how fast")
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, threads: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas": blas,
        "blas_threads": threads, "python": sys.version.split()[0],
        "numpy": np.__version__, "commit": git_commit(),
    }


def setup_once(env: dict) -> float:
    """Time from starting a fresh interpreter until `import phispec.cli`
    returns and the interpreter exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import phispec.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


# The probe reports VmHWM, the high-water mark of its own address space.  Its
# ru_maxrss would not do: the kernel carries the pre-exec high-water mark
# across exec, and before exec the child is a copy of this large process.
PROBE = """
import pickle, sys
sys.path[:0] = sys.argv[1:3]
with open(sys.argv[3], "rb") as fh:
    pickle.load(fh).ask()
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def peak_rss_mb(question, env: dict, workdir: Path) -> float:
    """Peak resident memory of a fresh interpreter that answers one question,
    as a `phispec` command line pays it."""
    path = workdir / "probe.pickle"
    with open(path, "wb") as fh:
        pickle.dump(question, fh)
    cmd = [sys.executable, "-c", PROBE, str(BENCH), str(SRC), str(path)]
    out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    return int(out.split()[-1]) / 1024.0


def answer(question, tracer=None):
    """Ask one question; returns (latency in seconds, answer or None, error)."""
    if tracer is not None:
        tracer.question = question.qid
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench"):
                    result = question.ask()
            else:
                result = question.ask()
        except (Exception, SystemExit):
            return time.perf_counter() - t0, None, traceback.format_exc()
        return time.perf_counter() - t0, result, None
    finally:
        if tracer is not None:
            tracer.uninstall()


def verify(question, result, error) -> list[str]:
    if error is not None:
        return [error]
    try:
        return question.check(result)
    except Exception:  # a malformed answer is a failed answer
        return [traceback.format_exc()]


class Record:
    """Latency and verdict of every answer of one run."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, bool]] = []

    def add(self, kind: str, latency: float, ok: bool) -> None:
        self.rows.append((kind, latency, ok))

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.rows if not ok)

    @property
    def busy(self) -> float:
        return sum(lat for _, lat, _ in self.rows)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.busy

    def median_ms(self, kind: str | None = None) -> float:
        lats = [lat for k, lat, _ in self.rows if kind in (None, k)]
        return 1000 * statistics.median(lats) if lats else float("nan")

    def tail(self) -> tuple[float, float, int]:
        """(latency in ms, percentile, samples) at the highest percentile that
        leaves TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
        lats = sorted(lat for _, lat, _ in self.rows)
        n = len(lats)
        if n <= TAIL_BEYOND:
            return 1000 * lats[-1], 100.0, n
        return 1000 * lats[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def layer_metrics(tracer, traced: Record, untraced: Record) -> dict:
    from tracing import LAYERS

    self_time, calls = tracer.stage_times()
    per_q = 1.0 / max(1, traced.attempted)
    metrics = {}
    for name, stage in LAYER_TIMES.items():
        metrics[name] = (self_time.get(stage, 0.0) * per_q, "s/question")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name] * per_q, unit)
    for name, stage in LAYER_CALLS.items():
        metrics[name] = (calls[stage] * per_q, "count/question")
    for layer in LAYERS + ("bench",):
        busy = sum(t for stage, t in self_time.items()
                   if stage == layer or stage.startswith(layer + "."))
        metrics[f"{layer}.share"] = (busy / traced.busy, "frac")
    metrics["trace.throughput_qps"] = (traced.throughput(), "1/s")
    metrics["trace.untraced_throughput_qps"] = (untraced.throughput(), "1/s")
    metrics["trace.overhead_frac"] = (traced.busy / untraced.busy - 1.0, "frac")
    return metrics


def run(args) -> int:
    if not (SRC / "phispec" / "cli.py").is_file():
        print(f"error: no phispec sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:  # before numpy loads, here and in the set-up samples
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    child_env = dict(os.environ, PYTHONPATH=str(SRC))

    import workloads
    from tracing import Tracer

    env = environment(args, threads)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup_once(child_env)  # may compile bytecode; not counted

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        # a traced run answers each question twice, so it asks half the passes
        passes = max(1, int(args.seconds / workload.PASS_SECONDS / (1 + args.trace)))
        planned = SMOKE_QUESTIONS if args.smoke else passes * workload.PASS
        workload.setup(planned)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.prepare()
        untraced, traced = Record(), Record()
        failures: list[str] = []
        # set-up samples are spread over the run, between questions, so that
        # their median does not hang on a few seconds of a shared machine
        setup_every = max(1, planned // SETUP_SAMPLES)
        setup_times: list[float] = []
        gc.collect()
        start = time.perf_counter()
        cutoff = min(CUTOFF_SECONDS, max(3 * args.seconds, args.seconds + 60))
        asked = 0
        for i in range(planned):
            if time.perf_counter() - start > cutoff:
                print(f"cut after {cutoff:.0f} s: {asked} of {planned} questions asked",
                      file=sys.stderr)
                break
            q = workload.question(i)
            runs = [(untraced, None)] + ([(traced, tracer)] if tracer else [])
            for record, tr in runs:
                latency, result, error = answer(q, tr)
                problems = verify(q, result, error)
                record.add(q.kind, latency, not problems)
                if problems:
                    failures.append(f"question {i} ({q.describe()}): " + "; ".join(problems))
                del result
                gc.collect()
            asked += 1
            if not args.trace and i % setup_every == 0 and len(setup_times) < SETUP_SAMPLES:
                setup_times.append(setup_once(child_env))
        if not args.trace:
            peak_mb = peak_rss_mb(workload.question(workload.PROBE_SLOT), child_env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for line in failures[:20]:
        print("FAIL " + line.strip().replace("\n", " | "), file=sys.stderr)
    tail_ms, tail_pct, samples = untraced.tail()
    print(f"latency_tail_ms is p{tail_pct:.1f} of {samples} samples "
          f"({min(TAIL_BEYOND, samples)} beyond it); {asked} questions, "
          f"{sum(1 for k, _, _ in untraced.rows if k == 'read')} read, "
          f"{sum(1 for k, _, _ in untraced.rows if k == 'edit')} edit", flush=True)

    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced)
        records = (untraced, traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_qps": (untraced.throughput(), "1/s"),
            "latency_p50_ms": (untraced.median_ms(), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "read_p50_ms": (untraced.median_ms("read"), "ms"),
            "edit_p50_ms": (untraced.median_ms("edit"), "ms"),
            "verified_frac": (1.0 - untraced.failed / untraced.attempted, "frac"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        records = (untraced,)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
