"""Answer checks built from the benchmark's own bookkeeping.

Every graph a question names is also held here as the benchmark's own edge
array, made by its own generators (workloads.py), never by phispec's graph
code.  From that array the checks derive degrees, the exact rational value of
sum(lambda^2) = 2 * sum over edges of phi(d_u, d_v)^2 (via the catalog's
exact `square`), and connectivity.  Closed-form energies come from
`phispec.closedforms`, an independent route to the same numbers.  Checks run
outside the timed region; each returns a list of problems, empty when the
answer is right.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from phispec import closedforms
from phispec.weights import WeightFunction

TRACE_TOL = 1e-9      # |sum lambda| <= TRACE_TOL * n * max(1, max|lambda|)
SQUARES_TOL = 1e-9    # relative, sum m lambda^2 against the exact reference
ENERGY_TOL = 1e-8     # relative, energy against a closed form
SELF_TOL = 1e-12      # relative, fields of one answer against each other
UNCHANGED_BAND = 1e-6  # |delta E| <= band * max(1, E_before) reads "unchanged@tol"


class GraphRef:
    """A graph as the benchmark itself knows it: n and an (m, 2) edge array
    with u < v in each row."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n = n
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = min(u, v), max(u, v)
        return bool(np.any((self.edges[:, 0] == u) & (self.edges[:, 1] == v)))

    def without(self, u: int, v: int) -> "GraphRef":
        u, v = min(u, v), max(u, v)
        keep = ~((self.edges[:, 0] == u) & (self.edges[:, 1] == v))
        if keep.all():
            raise ValueError(f"({u}, {v}) is not an edge of the reference graph")
        return GraphRef(self.n, self.edges[keep])

    def plus(self, u: int, v: int) -> "GraphRef":
        if self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is already an edge of the reference graph")
        return GraphRef(self.n, np.vstack([self.edges, [[min(u, v), max(u, v)]]]))

    def degree_pairs(self) -> dict[tuple[int, int], int]:
        """Edge count per unordered degree pair (a <= b)."""
        deg = self.degrees()
        a = deg[self.edges[:, 0]]
        b = deg[self.edges[:, 1]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        codes, counts = np.unique(lo * (self.n + 1) + hi, return_counts=True)
        return {(int(c // (self.n + 1)), int(c % (self.n + 1))): int(k)
                for c, k in zip(codes, counts)}

    def sum_squares(self, w: WeightFunction) -> Fraction:
        """Exact sum over edges of phi(d_u, d_v)^2."""
        return sum((k * w.square(a, b) for (a, b), k in self.degree_pairs().items()),
                   Fraction(0))

    def connected(self) -> bool:
        """Label propagation with pointer jumping over the edge array."""
        if self.n == 1:
            return True
        labels = np.arange(self.n)
        u, v = self.edges[:, 0], self.edges[:, 1]
        while True:
            new = labels.copy()
            np.minimum.at(new, u, labels[v])
            np.minimum.at(new, v, labels[u])
            new = new[new]
            if np.array_equal(new, labels):
                return bool((labels == 0).all())
            labels = new


def closed_form(kind: str, params: tuple[int, ...], w: WeightFunction,
                deleted: bool = False) -> closedforms.ClosedFormSpectrum | None:
    """Closed-form spectrum of a family instance, unedited or with one edge
    deleted, where phispec has one; None otherwise."""
    if deleted:
        if kind == "complete" and params[0] >= 3:
            return closedforms.complete_minus_edge_spectrum(params[0], w)
        return None
    if kind == "complete":
        return closedforms.complete_graph_spectrum(params[0], w)
    if kind in ("bipartite", "multipartite"):
        return closedforms.complete_multipartite_spectrum(params, w)
    if kind == "crown":
        return closedforms.crown_spectrum(params[0], params[1], w)
    if kind == "starplus" and w.id == "ISI" and params[0] >= 4:
        return closedforms.star_plus_spectrum_isi(params[0])
    return None


def closed_form_energy(kind: str, params: tuple[int, ...], w: WeightFunction,
                       deleted: bool = False) -> float | None:
    cfs = closed_form(kind, params, w, deleted)
    return None if cfs is None else closedforms.closed_energy(cfs)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_values(values: list[tuple[float, int]], ref: GraphRef, w: WeightFunction,
                 what: str) -> list[str]:
    """Invariants of a (value, multiplicity) list: order n, trace 0, the exact
    sum of squares, E >= 2 lambda_1."""
    problems = []
    order = sum(m for _, m in values)
    if order != ref.n:
        problems.append(f"{what}: multiplicities sum to {order}, graph has n={ref.n}")
        return problems
    scale = max(1.0, max(abs(v) for v, _ in values))
    trace = sum(v * m for v, m in values)
    if abs(trace) > TRACE_TOL * ref.n * scale:
        problems.append(f"{what}: trace {trace:.3e} is not 0")
    squares = sum(v * v * m for v, m in values)
    want = 2 * float(ref.sum_squares(w))
    if _rel(squares, want) > SQUARES_TOL:
        problems.append(f"{what}: sum lambda^2 = {squares!r}, exact reference {want!r}")
    energy = sum(abs(v) * m for v, m in values)
    if energy < 2 * values[0][0] * (1 - SELF_TOL) - SELF_TOL:
        problems.append(f"{what}: energy {energy!r} < 2 lambda_1 = {2 * values[0][0]!r}")
    return problems


def check_spectrum_json(payload: dict, ref: GraphRef, w: WeightFunction,
                        closed_energy: float | None, what: str) -> list[str]:
    """Checks for the JSON shape of `phispec spectrum`."""
    values = [(e["value"], e["multiplicity"]) for e in payload["eigenvalues"]]
    problems = check_values(values, ref, w, what)
    if any(b[0] >= a[0] for a, b in zip(values, values[1:])):
        problems.append(f"{what}: eigenvalues are not strictly decreasing")
    energy = sum(abs(v) * m for v, m in values)
    if _rel(payload["energy"], energy) > SELF_TOL:
        problems.append(
            f"{what}: energy field {payload['energy']!r} != sum |lambda| {energy!r}")
    radius = max(abs(values[0][0]), abs(values[-1][0]))
    if _rel(payload["spectral_radius"], radius) > SELF_TOL:
        problems.append(
            f"{what}: spectral radius {payload['spectral_radius']!r} != {radius!r}")
    if closed_energy is not None and _rel(payload["energy"], closed_energy) > ENERGY_TOL:
        problems.append(
            f"{what}: energy {payload['energy']!r} != closed form {closed_energy!r}")
    return problems


def energy_verdict(e_before: float, e_after: float) -> str:
    delta = e_after - e_before
    if abs(delta) <= UNCHANGED_BAND * max(1.0, abs(e_before)):
        return "unchanged@tol"
    return "increased" if delta > 0 else "decreased"


def check_compare_json(payload: dict, before: GraphRef, after: GraphRef,
                       w: WeightFunction, closed_before: float | None,
                       closed_after: float | None) -> list[str]:
    """Checks for the JSON shape of `phispec compare`."""
    problems = check_spectrum_json(payload["spectrum_before"], before, w,
                                   closed_before, "before")
    problems += check_spectrum_json(payload["spectrum_after"], after, w,
                                    closed_after, "after")
    e_b = payload["spectrum_before"]["energy"]
    e_a = payload["spectrum_after"]["energy"]
    if _rel(payload["delta_energy"], e_a - e_b) > SELF_TOL:
        problems.append(f"delta_energy {payload['delta_energy']!r} != {e_a - e_b!r}")
    verdict = energy_verdict(e_b, e_a)
    if payload["verdict"] != verdict:
        problems.append(f"verdict {payload['verdict']!r}, expected {verdict!r}")
    if payload["disconnected_after"] != (not after.connected()):
        problems.append(f"disconnected_after {payload['disconnected_after']!r} is wrong")
    if payload["weight"] != w.id:
        problems.append(f"weight {payload['weight']!r}, expected {w.id!r}")
    return problems


def check_charpoly(coeffs: tuple[Fraction, ...], ref: GraphRef,
                   w: WeightFunction) -> list[str]:
    """Exact identities of det(xI - A): monic, no x^(n-1) term, and the
    x^(n-2) coefficient equal to -(sum over edges of phi^2)."""
    n = ref.n
    problems = []
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        problems.append("characteristic polynomial is not monic of degree n")
        return problems
    if n >= 2 and coeffs[n - 1] != 0:
        problems.append(f"x^(n-1) coefficient {coeffs[n - 1]} is not 0")
    if n >= 2 and coeffs[n - 2] != -ref.sum_squares(w):
        problems.append(f"x^(n-2) coefficient {coeffs[n - 2]} != -{ref.sum_squares(w)}")
    return problems
