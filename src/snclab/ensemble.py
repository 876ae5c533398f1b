"""Lifted sparse-graph code ensemble.

Codewords are l x m matrices whose last l*omega' rows are zero and whose
first n_v = (1-omega')*l rows satisfy, for every check a,

    sum_{i in da} x_i * h_{i,a} = 0,

where the h_{i,a} are independent uniform invertible m x m edge labels on a
degree-2-variable Tanner graph drawn from the configuration model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import SncParams, validate_params
from .degrees import NodeDegreeDistribution, edge_to_node, rho_star
from .kernels import DTYPE, matmul_mod, rref_mod
from .linalg import as_matrix, random_full_rank_stack

MAX_GRAPH_ATTEMPTS = 10_000


# ---------------------------------------------------------------------------
# degree sequences and graphs
# ---------------------------------------------------------------------------


def realize_degree_sequence(p: NodeDegreeDistribution, n_v: int) -> List[int]:
    """Integer check-degree multiset matching P as closely as possible.

    Largest-remainder rounding of n_c * P_i followed by +-1 in-support degree
    moves to make the total stub count hit 2*n_v exactly; realizations that
    no simple graph can host (a degree above n_v, or fewer than two checks)
    are excluded.  Deterministic.
    """
    stubs = 2 * n_v
    support = [d for d in p.support if d > 0]
    if not support:
        raise ValueError("degree distribution has no positive support")
    if n_v > 0 and stubs < min(support):
        raise ValueError(f"2*n_v = {stubs} cannot host a check of degree {min(support)}")
    if n_v == 0:
        return []
    allowed = [d for d in support if d <= n_v]
    if not allowed:
        raise ValueError(f"every supported degree exceeds n_v = {n_v}")

    candidates = []
    allowed_mass = sum((p.mass(d) for d in allowed), Fraction(0))
    avg_allowed = sum((Fraction(d) * p.mass(d) for d in allowed), Fraction(0)) / allowed_mass
    n_c_mid = int(Fraction(stubs) / avg_allowed)
    for n_c in sorted({max(2, n_c_mid - 1), max(2, n_c_mid), n_c_mid + 1, n_c_mid + 2}):
        counts = _largest_remainder(p, n_c, allowed, allowed_mass)
        counts = _fix_total(counts, p, stubs, allowed)
        if counts is not None:
            dev = _max_deviation(counts, p)
            candidates.append((dev, sorted(counts.items()), counts))
    if not candidates:
        raise ValueError(f"cannot realize degree distribution with 2*n_v = {stubs} stubs")
    candidates.sort(key=lambda c: (c[0], c[1]))
    best = candidates[0][2]
    degrees: List[int] = []
    for d in sorted(best):
        degrees.extend([d] * best[d])
    return degrees


def _largest_remainder(p: NodeDegreeDistribution, n_c: int, allowed, allowed_mass) -> Dict[int, int]:
    # quotas conditioned on the feasible degrees so they sum to n_c exactly
    quotas = {d: Fraction(n_c) * p.mass(d) / allowed_mass for d in allowed}
    counts = {d: int(quota) for d, quota in quotas.items()}
    short = n_c - sum(counts.values())
    remainders = sorted(
        quotas, key=lambda d: (quotas[d] - counts[d], d), reverse=True
    )
    for d in remainders[:short]:
        counts[d] += 1
    return counts


def _fix_total(counts, p: NodeDegreeDistribution, stubs: int, allowed) -> Optional[Dict[int, int]]:
    support = sorted(allowed)
    counts = dict(counts)
    for _ in range(4 * stubs + 4):
        delta = stubs - sum(d * c for d, c in counts.items())
        if delta == 0:
            return counts
        step = 1 if delta > 0 else -1
        move = _best_move(counts, p, support, step)
        if move is None:
            return None
        src, dst = move
        counts[src] -= 1
        counts[dst] = counts.get(dst, 0) + 1
    return None


def _best_move(counts, p, support, step):
    # move one check from degree src to the adjacent in-support degree in the
    # required direction, preferring the most over-represented donor
    n_c = sum(counts.values())
    best = None
    best_score = None
    for idx, src in enumerate(support):
        jdx = idx + step
        if counts.get(src, 0) == 0 or jdx < 0 or jdx >= len(support):
            continue
        dst = support[jdx]
        score = (
            Fraction(counts.get(src, 0), n_c) - p.mass(src),
            p.mass(dst) - Fraction(counts.get(dst, 0), n_c),
            -src,
        )
        if best_score is None or score > best_score:
            best_score = score
            best = (src, dst)
    return best


def _max_deviation(counts: Dict[int, int], p: NodeDegreeDistribution) -> Fraction:
    n_c = sum(counts.values())
    degs = set(counts) | set(d for d in p.support if d > 0)
    return max(abs(Fraction(counts.get(d, 0), n_c) - p.mass(d)) for d in degs)


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite graph: n_v degree-2 variables vs checks of given degrees.

    edges[e] = (variable, check, slot); slot indexes the check-side socket.
    """

    n_v: int
    check_degrees: tuple
    edges: tuple

    def __post_init__(self):
        if sum(self.check_degrees) != 2 * self.n_v:
            raise ValueError("check degrees must sum to 2*n_v")
        per_var: Dict[int, List[int]] = {}
        per_check: Dict[int, List[int]] = {}
        for v, c, slot in self.edges:
            per_var.setdefault(v, []).append(c)
            per_check.setdefault(c, []).append(slot)
        for v in range(self.n_v):
            cs = per_var.get(v, [])
            if len(cs) != 2:
                raise ValueError(f"variable {v} has degree {len(cs)}, expected 2")
            if cs[0] == cs[1]:
                raise ValueError(f"variable {v} has a double edge to check {cs[0]}")
        for c, d in enumerate(self.check_degrees):
            slots = sorted(per_check.get(c, []))
            if slots != list(range(d)):
                raise ValueError(f"check {c} slots {slots} do not fill degree {d}")

    @property
    def n_c(self) -> int:
        return len(self.check_degrees)

    @property
    def n_e(self) -> int:
        return 2 * self.n_v

    def var_edges(self) -> List[List[int]]:
        """Edge indices per variable (each has exactly two)."""
        out: List[List[int]] = [[] for _ in range(self.n_v)]
        for e, (v, _, _) in enumerate(self.edges):
            out[v].append(e)
        return out

    def check_edges(self) -> List[List[int]]:
        """Edge indices per check, ordered by slot."""
        slots: List[List[Tuple[int, int]]] = [[] for _ in range(self.n_c)]
        for e, (_, c, slot) in enumerate(self.edges):
            slots[c].append((slot, e))
        return [[e for _, e in sorted(lst)] for lst in slots]


def sample_tanner_graph(degrees: Sequence[int], n_v: int, rng: np.random.Generator) -> TannerGraph:
    """Uniform stub pairing conditioned on no variable hitting a check twice.

    Whole configurations are redrawn on violation, which realizes the
    conditioned-uniform law exactly; for any fixed degree profile the
    acceptance probability is bounded away from zero.
    """
    degrees = [int(d) for d in degrees]
    stubs = 2 * n_v
    if sum(degrees) != stubs:
        raise ValueError(f"degrees sum to {sum(degrees)}, expected {stubs}")
    if n_v > 0 and (len(degrees) < 2 or max(degrees) > n_v):
        raise ValueError("no simple graph exists for this degree sequence")
    slot_check = np.repeat(np.arange(len(degrees)), degrees)
    slot_index = np.concatenate([np.arange(d) for d in degrees]) if degrees else np.zeros(0, dtype=int)
    for _ in range(MAX_GRAPH_ATTEMPTS):
        perm = rng.permutation(stubs)
        checks = slot_check[perm]
        if np.any(checks[0::2] == checks[1::2]):
            continue
        edges = []
        for v in range(n_v):
            for stub in (2 * v, 2 * v + 1):
                p = perm[stub]
                edges.append((v, int(slot_check[p]), int(slot_index[p])))
        return TannerGraph(n_v=n_v, check_degrees=tuple(degrees), edges=tuple(edges))
    raise ValueError(
        f"no valid pairing found in {MAX_GRAPH_ATTEMPTS} attempts; "
        "degree sequence may make the no-double-edge condition unsatisfiable"
    )


# ---------------------------------------------------------------------------
# lifted codes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LiftedCode:
    """Tanner graph plus invertible edge labels over F_q^(m x m)."""

    params: SncParams
    graph: TannerGraph
    labels: tuple
    omega_prime: Fraction
    _system_rref: Optional[tuple] = field(default=None, repr=False)

    @property
    def n_v(self) -> int:
        return self.graph.n_v

    @property
    def n_zero_rows(self) -> int:
        return self.params.l - self.graph.n_v

    @property
    def design_rate(self) -> Fraction:
        """m (n_v - n_c) / (N l): the lifted system's unknowns less its
        equations, per symbol of the l x N channel input."""
        p = self.params
        return Fraction(p.m * (self.graph.n_v - self.graph.n_c), p.N * p.l)

    def constraint_matrix(self) -> np.ndarray:
        """Lifted system over the n_v*m unknowns of the constrained rows.

        Unknown (i, r) is column i*m + r; check a contributes the m equations
        sum_i x_i h_{i,a} = 0, i.e. block (a, i) holds h_{i,a}^T.
        """
        m = self.params.m
        q = self.params.q
        n_rows = self.graph.n_c * m
        n_cols = self.n_v * m
        sys = np.zeros((n_rows, n_cols), dtype=DTYPE)
        for e, (v, c, _) in enumerate(self.graph.edges):
            sys[c * m : (c + 1) * m, v * m : (v + 1) * m] = self.labels[e].T % q
        return sys

    def system_rref(self):
        if self._system_rref is None:
            sys = self.constraint_matrix()
            r, rk, piv = rref_mod(sys, self.params.q)
            self._system_rref = (r[:rk], rk, tuple(int(c) for c in piv))
        return self._system_rref

    def info_length(self) -> int:
        """Number of free coordinates of the lifted system."""
        _, rk, _ = self.system_rref()
        return self.n_v * self.params.m - rk


def constrained_rows(params: SncParams, omega_prime: Optional[Fraction] = None) -> int:
    """n_v = (1-omega')*l, the rows a code constrains; its last l*omega' rows
    are zero.  Raises unless l*omega' is an integer and omega <= omega' < 1."""
    omega_prime = params.omega if omega_prime is None else Fraction(omega_prime)
    zero_rows = omega_prime * params.l
    if zero_rows.denominator != 1:
        raise ValueError(f"l*omega' = {zero_rows} is not an integer")
    if not params.omega <= omega_prime < 1:
        raise ValueError(f"omega' must lie in [omega, 1), got {omega_prime}")
    return params.l - int(zero_rows)


def lift(
    graph: TannerGraph,
    params: SncParams,
    rng: np.random.Generator,
    omega_prime: Optional[Fraction] = None,
) -> LiftedCode:
    """Attach independent uniform GL_m(F_q) labels to every edge."""
    omega_prime = params.omega if omega_prime is None else Fraction(omega_prime)
    expected_n_v = constrained_rows(params, omega_prime)
    if graph.n_v != expected_n_v:
        raise ValueError(
            f"graph has {graph.n_v} variables, expected (1-omega')*l = {expected_n_v}"
        )
    q, m = params.q, params.m
    labels = tuple(random_full_rank_stack(graph.n_e, m, m, q, rng))
    return LiftedCode(params=params, graph=graph, labels=labels, omega_prime=omega_prime)


def build_code(
    params: SncParams,
    k: int,
    b: int,
    rng: np.random.Generator,
    omega_prime: Optional[Fraction] = None,
) -> LiftedCode:
    """Degree sequence from rho_star(k, b), configuration-model graph, lift."""
    n_v = constrained_rows(params, omega_prime)
    degrees = realize_degree_sequence(edge_to_node(rho_star(k, b).dist), n_v)
    graph = sample_tanner_graph(degrees, n_v, rng)
    return lift(graph, params, rng, omega_prime=omega_prime)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def encode(code: LiftedCode, info: Sequence[int]) -> np.ndarray:
    """Map an information vector to the codeword with those values on the
    non-pivot (free) coordinates of the lifted system."""
    q, m = code.params.q, code.params.m
    r, rk, piv = code.system_rref()
    n_unknowns = code.n_v * m
    free = np.setdiff1d(np.arange(n_unknowns), piv)
    info = np.asarray(info, dtype=DTYPE)
    if info.shape != free.shape:
        raise ValueError(f"info must have length {free.size}, got {info.shape}")
    if info.size and (info.min() < 0 or info.max() >= q):
        raise ValueError(f"info symbols must lie in [0, {q})")
    x = np.zeros(n_unknowns, dtype=DTYPE)
    x[free] = info
    # pivot value = -(free part of the row) . info
    x[list(piv)] = (-(r[:, free] @ info)) % q
    word = np.zeros((code.params.l, m), dtype=DTYPE)
    word[: code.n_v] = x.reshape(code.n_v, m)
    word.setflags(write=False)
    return word


def exact_rate(code: LiftedCode) -> Fraction:
    """log_q |C| / (N*l) from the exact rank of the lifted system."""
    return Fraction(code.info_length(), code.params.N * code.params.l)


def check_satisfied(code: LiftedCode, x: np.ndarray) -> bool:
    """True iff the zero-row block is zero and every check equation holds."""
    q, m = code.params.q, code.params.m
    x = as_matrix(x, q)
    if x.shape != (code.params.l, m):
        raise ValueError(f"codeword must be {code.params.l}x{m}, got {x.shape}")
    if code.n_zero_rows and np.any(x[code.n_v :]):
        return False
    check_acc = np.zeros((code.graph.n_c, m), dtype=DTYPE)
    for e, (v, c, _) in enumerate(code.graph.edges):
        check_acc[c] = (check_acc[c] + matmul_mod(x[v : v + 1], code.labels[e], q)[0]) % q
    return not np.any(check_acc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CODE_FORMAT = "snclab.code.v1"


def code_to_dict(code: LiftedCode, master_seed: Optional[int] = None) -> dict:
    p = code.params
    return {
        "format": CODE_FORMAT,
        "q": p.q,
        "N": p.N,
        "lambda": str(p.lam),
        "omega": str(p.omega),
        "omega_prime": str(code.omega_prime),
        "check_degrees": list(code.graph.check_degrees),
        "edges": [list(e) for e in code.graph.edges],
        "labels": [h.flatten().tolist() for h in code.labels],
        "master_seed": master_seed,
    }


def code_from_dict(d: dict) -> LiftedCode:
    if d.get("format") != CODE_FORMAT:
        raise ValueError(f"unsupported code format {d.get('format')!r}")
    params = validate_params(d["q"], d["N"], Fraction(d["lambda"]), Fraction(d["omega"]))
    graph = TannerGraph(
        n_v=len(d["edges"]) // 2,
        check_degrees=tuple(d["check_degrees"]),
        edges=tuple(tuple(e) for e in d["edges"]),
    )
    m = params.m
    labels = tuple(
        as_matrix(np.asarray(flat, dtype=DTYPE).reshape(m, m), params.q)
        for flat in d["labels"]
    )
    return LiftedCode(
        params=params, graph=graph, labels=labels, omega_prime=Fraction(d["omega_prime"])
    )


def save_code(code: LiftedCode, path, master_seed: Optional[int] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code, master_seed), fh, sort_keys=True)
        fh.write("\n")


def load_code(path) -> LiftedCode:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))
