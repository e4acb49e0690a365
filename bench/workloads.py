"""The benchmark's three workloads: seeded inputs and the questions asked.

A workload is a deterministic stream of questions.  Question i is drawn from
`random.Random(f"{workload}:{seed}:{i}")`, so the same seed gives the same
inputs.  Every stream is laid out in passes of fixed composition: which
family or graph, which question kind, which size and which weight a slot
holds depends only on its position, while the seed picks the exact size
within 1%, the part split, the random graphs and the edited edge.  A run
answers whole passes, so every seed sees the same mix, which keeps medians
and tails comparable between runs.

Every question carries its own reference graph (checks.GraphRef), built here
from the family grammar's documented vertex layout (parts on consecutive
vertex ranges) or from the generated edge list, never by phispec's graph
code.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from phispec import (cli, closedforms, exact, graphs, matrices, spectra,
                     weights)

SELECTORS = ("isi", "adj", "ag", "ga", "m1", "abc", "randic", "m2", "sombor", "ms")
RATIONAL_SELECTORS = ("isi", "adj", "m1", "m2")  # rational at every degree pair

JACOBI_TOL = 1e-9   # dense vs Jacobi, per eigenvalue, relative to max(1, max|lambda|)
CLOSED_TOL = 1e-7   # dense vs closed form, same scale
ROOT_TOL = 1e-9     # dense eigenvalues as roots of the exact characteristic polynomial


# ---------------------------------------------------------------------------
# the benchmark's own graph generators


def family_ref(kind: str, params: tuple[int, ...]) -> checks.GraphRef:
    """Edge array of a family instance, parts on consecutive vertex ranges."""
    if kind == "starplus":
        n = params[0]
        edges = [(0, k) for k in range(1, n)] + [(1, 2)]
        return checks.GraphRef(n, np.array(edges))
    if kind == "crown":
        p, t = params
        n = p * t
        part, pos = np.arange(n) // p, np.arange(n) % p
        iu, ju = np.triu_indices(n, 1)
        keep = (part[iu] != part[ju]) & (pos[iu] != pos[ju])
        return checks.GraphRef(n, np.column_stack([iu[keep], ju[keep]]))
    parts = [1] * params[0] if kind == "complete" else list(params)
    label = np.repeat(np.arange(len(parts)), parts)
    iu, ju = np.triu_indices(len(label), 1)
    keep = label[iu] != label[ju]
    return checks.GraphRef(len(label), np.column_stack([iu[keep], ju[keep]]))


def random_graph(n: int, avg_degree: float, model: str,
                 rng: np.random.Generator) -> checks.GraphRef:
    """Uniform G(n, m) or heavy-tailed Chung-Lu graph with the given mean degree."""
    if model == "uniform":
        m = int(round(n * avg_degree / 2))
        codes = np.empty(0, dtype=np.int64)
        while len(codes) < m:
            u = rng.integers(0, n, size=2 * m)
            v = rng.integers(0, n, size=2 * m)
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            fresh = (lo * n + hi)[lo != hi]
            codes = np.unique(np.concatenate([codes, fresh]))
        codes = rng.permutation(codes)[:m]
        codes.sort()
        return checks.GraphRef(n, np.column_stack([codes // n, codes % n]))
    # Chung-Lu: expected degrees follow a power law with exponent 2.5, scaled to
    # the mean and capped so that every pair probability stays at most 1
    expected = (np.arange(n) + 1.0) ** (-1.0 / 1.5)
    expected *= avg_degree * n / expected.sum()
    expected = np.minimum(expected, np.sqrt(expected.sum()))
    iu, ju = np.triu_indices(n, 1)
    prob = expected[iu] * expected[ju] / expected.sum()
    keep = rng.random(len(prob)) < prob
    perm = rng.permutation(n)  # spread the hubs over the vertex range
    u, v = perm[iu[keep]], perm[ju[keep]]
    edges = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
    return checks.GraphRef(n, edges[np.lexsort((edges[:, 1], edges[:, 0]))])


def write_edge_list(path: Path, ref: checks.GraphRef, note: str) -> None:
    lines = [f"# {note}", f"n {ref.n}"]
    lines += [f"{u} {v}" for u, v in ref.edges.tolist()]
    path.write_text("\n".join(lines) + "\n")


def random_edge(ref: checks.GraphRef, rng: random.Random) -> tuple[int, int]:
    u, v = ref.edges[rng.randrange(ref.m)].tolist()
    return u, v


def random_non_edge(ref: checks.GraphRef, rng: random.Random) -> tuple[int, int]:
    present = set(map(tuple, ref.edges.tolist()))
    while True:
        u, v = sorted(rng.sample(range(ref.n), 2))
        if (u, v) not in present:
            return u, v


def jitter(value: float, rng: random.Random, spread: float = 0.02) -> int:
    return int(round(value * (1 + rng.uniform(-spread, spread))))


def family_instance(kind: str, n: int, rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """Family text and parameters of about n vertices."""
    if kind == "complete":
        return f"complete:{n}", (n,)
    if kind == "multipartite":
        shares = [0.25, 0.33, 0.42]
        sizes = [max(2, int(round(n * (s + rng.uniform(-0.02, 0.02))))) for s in shares]
        # the workload asks for unequal parts; the last part takes up the
        # rest, so that the order, and with it the cost, does not move with
        # the seed
        sizes[1] = max(sizes[1], sizes[0] + 1)
        sizes[2] = max(sizes[1] + 1, n - sizes[0] - sizes[1])
        return "multipartite:" + ",".join(map(str, sizes)), tuple(sizes)
    if kind == "bipartite":
        a = int(round(n * rng.uniform(0.4, 0.5)))
        return f"bipartite:{a},{n - a}", (a, n - a)
    if kind == "crown":
        p = max(3, int(round(n / 4)))
        return f"crown:{p},4", (p, 4)
    if kind == "starplus":
        return f"starplus:{n}", (n,)
    raise ValueError(f"unknown family kind {kind!r}")


def family_edit(kind: str, params: tuple[int, ...], ref: checks.GraphRef,
                rng: random.Random) -> tuple[str, int, int]:
    """A deletion of an edge or an addition of a non-edge, per family shape."""
    n = ref.n
    if kind == "complete":
        u, v = sorted(rng.sample(range(n), 2))
        return "delete", u, v
    if kind in ("multipartite", "bipartite"):
        starts = np.cumsum([0] + list(params))
        if rng.random() < 0.5:
            return ("delete",) + random_edge(ref, rng)
        i = rng.randrange(len(params))
        u, v = sorted(rng.sample(range(starts[i], starts[i + 1]), 2))
        return "add", int(u), int(v)
    if kind == "crown":
        p, t = params
        if rng.random() < 0.5:
            return ("delete",) + random_edge(ref, rng)
        i, j = sorted(rng.sample(range(t), 2))
        a = rng.randrange(p)
        return "add", i * p + a, j * p + a
    if kind == "starplus":
        if rng.random() < 0.5:
            return "delete", 0, rng.randrange(3, n)
        u, v = sorted(rng.sample(range(3, n), 2))
        return "add", u, v
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# questions


@dataclass
class CliQuestion:
    """One `phispec` command line, run in-process through `cli.main`."""

    qid: int
    kind: str            # "read" or "edit"
    argv: list[str]
    weight: str
    before: checks.GraphRef
    after: checks.GraphRef | None = None
    closed_before: float | None = None
    closed_after: float | None = None

    def ask(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, answer) -> list[str]:
        code, out, err = answer
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        payload = json.loads(out)
        w = weights.get_weight(self.weight)
        if self.after is None:
            return checks.check_spectrum_json(payload, self.before, w,
                                              self.closed_before, "spectrum")
        return checks.check_compare_json(payload, self.before, self.after, w,
                                         self.closed_before, self.closed_after)

    def describe(self) -> str:
        return "phispec " + " ".join(self.argv)


def _max_gap(a: list[float], b: list[float]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _expand(spectrum: spectra.Spectrum) -> list[float]:
    return [v for v, m in spectrum.eigenvalues for _ in range(m)]


@dataclass
class CrosscheckQuestion:
    """One cross-check of every route that applies to one graph, built from
    the public library functions: dense numerics, the closed form where the
    family has one, the Jacobi oracle, and the exact characteristic polynomial
    for small graphs under a rational weight."""

    qid: int
    kind: str                    # "read" (plain graph) or "edit" (one edge deleted)
    source: str                  # family text or edge-list path
    weight: str
    ref: checks.GraphRef         # the graph the routes see, after any edit
    family: tuple[str, tuple[int, ...]] | None = None
    delete: tuple[int, int] | None = None
    charpoly: bool = False

    def ask(self):
        w = weights.get_weight(self.weight)
        if self.family is not None:
            g = graphs.build_family(graphs.parse_family(self.source))
        else:
            with open(self.source) as fh:
                g = graphs.read_edge_list(fh.read())
        if self.delete is not None:
            g = graphs.delete_edge(g, *self.delete)
        a = matrices.assemble(g, w)
        dense = spectra.eigenvalues_sym(a)
        scale = max(1.0, max(abs(x) for x in dense))
        routes = {"jacobi": exact.jacobi_eigen(a)}
        gaps = {"jacobi": _max_gap(dense, routes["jacobi"]) / scale}
        agree = gaps["jacobi"] <= JACOBI_TOL
        cfs = None
        if self.family is not None:
            cfs = checks.closed_form(*self.family, w, deleted=self.delete is not None)
        if cfs is not None:
            routes["closed"] = _expand(closedforms.to_spectrum(cfs))
            gaps["closed"] = _max_gap(dense, routes["closed"]) / scale
            agree = agree and gaps["closed"] <= CLOSED_TOL
        grouped = spectra.group(dense)
        poly = None
        if self.charpoly:
            # the dense route's answer as phispec reports it: grouped, with
            # structural zeros snapped to 0.0 (bench/README.md, "Known defects")
            poly = exact.char_poly_exact(matrices.assemble_exact(g, w))
            if not exact.verify_root_multiset(poly, spectra.expand(grouped), ROOT_TOL):
                gaps["charpoly"] = "dense eigenvalues rejected as roots"
                agree = False
        return agree, gaps, dense, grouped, routes, poly

    def check(self, answer) -> list[str]:
        agree, gaps, dense, grouped, routes, poly = answer
        w = weights.get_weight(self.weight)
        problems = []
        if not agree:
            problems.append(f"routes disagree: {gaps}")
        problems += checks.check_values([(x, 1) for x in dense], self.ref, w, "dense")
        problems += checks.check_values(list(grouped.eigenvalues), self.ref, w, "grouped")
        for name, values in routes.items():
            if len(values) != self.ref.n:
                problems.append(f"{name}: {len(values)} values for n={self.ref.n}")
            else:
                problems += checks.check_values([(x, 1) for x in values], self.ref, w, name)
        if poly is not None:
            problems += checks.check_charpoly(poly.coeffs, self.ref, w)
        return problems

    def describe(self) -> str:
        edit = f" minus {self.delete}" if self.delete else ""
        return f"crosscheck {self.source}{edit} weight={self.weight}"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A question stream laid out in passes of PASS slots.  A run answers
    whole passes; PASS_SECONDS is how long one pass took on the reference
    machine (bench/README.md), which turns --seconds into a pass count."""

    name = ""
    PASS = 1
    PASS_SECONDS = 1.0
    PROBE_SLOT = 0  # the question of pass 0 with the largest memory footprint

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def size(self, n: int) -> int:
        """Smoke runs shrink every graph to a few dozen vertices."""
        return max(12, n // 25) if self.smoke else n

    def setup(self, questions: int) -> None:
        """Write every input file the first `questions` questions read,
        before timing starts."""

    def question(self, i: int):
        raise NotImplementedError


class FamilyDense(Workload):
    """Named families at n of about 600 to 1500, half spectrum, half compare.
    Each slot keeps one weight, so every pass asks all ten."""

    name = "family-dense"
    # (family, 1 for compare, n), sizes 600 to 1500.  Costs are laid out so
    # that every reported order statistic falls inside one shape's samples,
    # away from the gaps between shapes: the two middle reads share a shape
    # (multipartite at 1100), as do the two middle compares (crown at 700);
    # one costliest shape (complete at 1200) sits above a pair (crown reads
    # at 1200) that holds the 11th-largest latency of a four-pass run.
    SLOTS = (("complete", 0, 1200), ("multipartite", 1, 600), ("multipartite", 0, 1100),
             ("bipartite", 1, 700), ("starplus", 0, 1500), ("crown", 1, 700),
             ("crown", 0, 1200), ("bipartite", 0, 1100), ("complete", 1, 700),
             ("starplus", 1, 1000), ("complete", 0, 700), ("crown", 1, 700),
             ("multipartite", 0, 1100), ("bipartite", 1, 900), ("crown", 0, 1200),
             ("multipartite", 1, 800))
    # weight of each slot: all ten, m2 on a crown read.  m2 stays off the
    # multipartite and bipartite slots, whose zero eigenvalue of multiplicity
    # near n `spectra.group` splits into several "0" rows under it at these
    # sizes (bench/README.md, "Known defects").
    WEIGHTS = ("isi", "adj", "ag", "ga", "m1", "abc", "m2", "randic", "sombor", "ms",
               "isi", "adj", "ag", "ga", "m1", "abc")
    PASS = len(SLOTS)
    PASS_SECONDS = 8.8
    PROBE_SLOT = 0

    def question(self, i: int) -> CliQuestion:
        rng = self.rng(i)
        slot = i % self.PASS
        kind, compare, n = self.SLOTS[slot]
        text, params = family_instance(kind, jitter(self.size(n), rng, 0.01), rng)
        selector = self.WEIGHTS[slot]
        w = weights.get_weight(selector)
        before = family_ref(kind, params)
        closed_before = checks.closed_form_energy(kind, params, w)
        argv = ["--family", text, "--weight", selector, "--format", "json"]
        if not compare:
            return CliQuestion(i, "read", ["spectrum"] + argv, selector, before,
                               closed_before=closed_before)
        op, u, v = family_edit(kind, params, before, rng)
        if op == "delete":
            after = before.without(u, v)
            closed_after = checks.closed_form_energy(kind, params, w, deleted=True)
        else:
            after, closed_after = before.plus(u, v), None
        return CliQuestion(
            i, "edit", ["compare"] + argv + [f"--{op}-edge", "--edge", f"{u},{v}"],
            selector, before, after, closed_before, closed_after)


class EdgelistSparse(Workload):
    """Seeded random edge-list files at n of about 800 to 2000, mean degree
    6 to 16, uniform and Chung-Lu degree sequences; half spectrum, half
    compare with an explicit edge.  Twelve files serve every pass; the
    weight and the edited edge change from pass to pass."""

    name = "edgelist-sparse"
    POOL = 12
    # slot order over the pool: large and small graphs alternate
    ORDER = (11, 0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5)
    PASS = 2 * POOL
    PASS_SECONDS = 4.6
    PROBE_SLOT = 0  # the largest graph, compared

    def setup(self, questions: int) -> None:
        self.graphs: list[tuple[Path, checks.GraphRef]] = []
        for j in range(self.POOL):
            rng = self.rng(-1 - j)
            n = jitter(self.size(800 + j * 1200 // (self.POOL - 1)), rng, 0.01)
            # mean degrees 6..16 spread over the sizes by a fixed permutation
            degree = 6 + ((5 * j + 3) % self.POOL) * 10 / (self.POOL - 1)
            degree *= rng.uniform(0.97, 1.03)
            if self.smoke:
                degree = 4.0
            model = "uniform" if j % 2 == 0 else "chung-lu"
            ref = random_graph(n, degree, model, np.random.default_rng(rng.getrandbits(64)))
            path = self.workdir / f"sparse-{j:02d}.txt"
            write_edge_list(path, ref, f"{model} n={n} mean degree {degree:.2f}")
            self.graphs.append((path, ref))

    def question(self, i: int) -> CliQuestion:
        rng = self.rng(i)
        k, slot = divmod(i, self.PASS)
        j = self.ORDER[slot % self.POOL]
        compare = (j + slot // self.POOL) % 2
        path, before = self.graphs[j]
        selector = SELECTORS[(slot + k) % len(SELECTORS)]
        argv = ["--edges", str(path), "--weight", selector, "--format", "json"]
        if not compare:
            return CliQuestion(i, "read", ["spectrum"] + argv, selector, before)
        if rng.random() < 0.5:
            u, v = random_edge(before, rng)
            op, after = "delete", before.without(u, v)
        else:
            u, v = random_non_edge(before, rng)
            op, after = "add", before.plus(u, v)
        return CliQuestion(
            i, "edit", ["compare"] + argv + [f"--{op}-edge", "--edge", f"{u},{v}"],
            selector, before, after)


class OracleCrosscheck(Workload):
    """Graphs at n of about 60 to 200, families and random, each plain and
    with one edge deleted, every route cross-checked; plus small graphs
    (n of 10 to 16) under a rational weight, where the exact characteristic
    polynomial applies."""

    name = "oracle-crosscheck"
    # (source, 1 for one edge deleted, n); "small" alternates a random graph
    # and a family from pass to pass.  As in family-dense, the middle reads
    # share a shape (crown at 100), as do the middle compares (complete at
    # 160), and one costliest shape (random at 190, edited) sits above a pair
    # (starplus at 200) that holds the 11th-largest latency.
    SLOTS = (("small", 0, 14), ("random", 1, 190), ("complete", 0, 60),
             ("complete", 1, 160), ("crown", 0, 100), ("starplus", 1, 70),
             ("random", 0, 70), ("crown", 1, 140), ("starplus", 0, 200),
             ("complete", 1, 160), ("crown", 0, 100), ("multipartite", 1, 60),
             ("multipartite", 0, 160), ("bipartite", 1, 140), ("starplus", 0, 200),
             ("small", 1, 14))
    RANDOM_DEGREE = 10.0
    SMALL_FAMILIES = ("complete", "multipartite", "bipartite", "crown")
    PASS = len(SLOTS)
    PASS_SECONDS = 5.8
    PROBE_SLOT = 1  # random, n = 190, edited

    def size(self, n: int) -> int:
        return max(10, n // 5) if self.smoke else n

    def setup(self, questions: int) -> None:
        """One edge-list file per random or small-random question."""
        self.files: dict[int, tuple[Path, checks.GraphRef]] = {}
        for i in range(questions):
            k, slot = divmod(i, self.PASS)
            source, _, n = self.SLOTS[slot]
            if source == "small" and k % 2 == 1:
                continue  # a small family this pass
            if source not in ("random", "small"):
                continue
            rng = self.rng(-1 - i)
            if source == "random":
                model = "uniform" if k % 2 == 0 else "chung-lu"
                ref = random_graph(jitter(self.size(n), rng, 0.01),
                                   4.0 if self.smoke else self.RANDOM_DEGREE, model,
                                   np.random.default_rng(rng.getrandbits(64)))
            else:
                model = "uniform"
                ref = random_graph(rng.randint(10, 16), rng.uniform(3, 6), model,
                                   np.random.default_rng(rng.getrandbits(64)))
            path = self.workdir / f"oracle-{i:04d}.txt"
            write_edge_list(path, ref, f"{model} n={ref.n}")
            self.files[i] = (path, ref)

    def question(self, i: int) -> CrosscheckQuestion:
        rng = self.rng(i)
        k, slot = divmod(i, self.PASS)
        source, edit, n = self.SLOTS[slot]
        charpoly = source == "small"
        if charpoly:
            selector = RATIONAL_SELECTORS[(2 * k + edit) % len(RATIONAL_SELECTORS)]
        else:
            selector = SELECTORS[(slot + 3 * k) % len(SELECTORS)]
        if i in self.files:
            path, ref = self.files[i]
            return self._make(i, edit, str(path), selector, ref, None, rng, charpoly)
        if charpoly:
            kind = self.SMALL_FAMILIES[(k // 2) % len(self.SMALL_FAMILIES)]
            n = rng.randint(10, 14)
        else:
            kind, n = source, jitter(self.size(n), rng, 0.01)
        text, params = family_instance(kind, n, rng)
        return self._make(i, edit, text, selector, family_ref(kind, params),
                          (kind, params), rng, charpoly)

    def _make(self, i, edit, source, selector, ref, family, rng, charpoly):
        delete = random_edge(ref, rng) if edit else None
        seen = ref.without(*delete) if delete else ref
        return CrosscheckQuestion(i, "edit" if edit else "read", source, selector,
                                  seen, family, delete, charpoly)


WORKLOADS = {w.name: w for w in (FamilyDense, EdgelistSparse, OracleCrosscheck)}
