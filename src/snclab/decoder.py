"""Iterative affine-subspace message-passing decoder.

Messages are affine subspaces of F_q^m.  With W the recovered noise space and
abar the other check of variable i, a full flooding round applies

    W_{i->a}^{t+1} = (y_i + W)  ∩  [ sum_{j in d(abar), j != i} W_{j->abar} h_{j,abar} ] h_{i,abar}^{-1}

simultaneously on all directed edges; a row is decided once its two messages
intersect in a single point.  Every message lies in its anchor y_i + W, so the
decoder works in coordinates over W's RREF basis U: x_i = a_i + c_i U with a_i
the residue of y_i modulo W.  Check a's equation sum_i x_i h_i = 0 becomes
sum_i c_i G_i = b_a with G_i = U h_i and b_a = -sum_i a_i h_i, and a round is
one ``preimage`` per directed edge: no label inverse and no anchor meet.
All of a round's preimages share the width m + 1 + s, so a round is one
``preimage_batch`` call, and so is each decision's set of pairwise
intersections in F_q^s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .channel import SncParams
from .ensemble import LiftedCode, constrained_rows
from .kernels import DTYPE, matmul_mod
from .linalg import AffineSubspace, Subspace, as_matrix, preimage_batch, row_space


class EmptyIntersectionFault(RuntimeError):
    """Internal-consistency fault: with a correctly recovered noise space the
    true row lies in both operands, so their intersection cannot be empty."""


@dataclass(frozen=True)
class DecoderConfig:
    max_iters: int = 50

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class MessageState:
    """Per-directed-edge messages in coordinates over the recovered noise
    space W: edge e = (i -> a) carries {offsets[e] + c U : c in coords[e]},
    with U W's RREF basis and offsets[e] = a_i.  ``gains[e]`` = U h_e and
    ``targets[a]`` = b_a state the check equations in those coordinates."""

    coords: tuple
    offsets: np.ndarray
    w: Subspace
    gains: tuple
    targets: np.ndarray
    t: int

    @cached_property
    def messages(self) -> tuple:
        """The messages as canonical cosets of F_q^m."""
        return tuple(AffineSubspace.from_coords(a, c, self.w) for a, c in zip(self.offsets, self.coords))


@dataclass(frozen=True)
class DecodeResult:
    x_hat: np.ndarray
    determined: np.ndarray
    iterations_used: int
    stats: tuple
    noise_space_ok: bool
    noise_space_dim: int
    n_constrained: int

    @property
    def all_determined(self) -> bool:
        return bool(self.determined[: self.n_constrained].all())

    def undetermined_fraction(self) -> float:
        if self.n_constrained == 0:
            return 0.0
        n_bad = int((~self.determined[: self.n_constrained]).sum())
        return n_bad / self.n_constrained


def recover_noise_space(y: np.ndarray, params: SncParams, omega_prime) -> Subspace:
    """Row space of the last l*omega' rows of y.

    The transmitted word is zero there, so those rows of y are noise rows;
    recovery succeeds iff the result has dimension s.
    """
    n_v = constrained_rows(params, omega_prime)
    y = as_matrix(y, params.q)
    if y.shape != (params.l, params.m):
        raise ValueError(f"received matrix must be {params.l}x{params.m}, got {y.shape}")
    return row_space(y[n_v:], params.q)


def span_failure_probability(s: int, n_rows: int, q: int) -> Fraction:
    """P{n_rows iid uniform vectors of an s-dim space fail to span it}."""
    if s < 0 or n_rows < 0:
        raise ValueError("s and n_rows must be non-negative")
    if s > n_rows:
        return Fraction(1)
    p_ok = Fraction(1)
    for i in range(s):
        p_ok *= 1 - Fraction(1, q ** (n_rows - i))
    return 1 - p_ok


def init_messages(y: np.ndarray, w: Subspace, code: LiftedCode) -> MessageState:
    """t = 0: every directed edge (i -> a) carries y_i + W, all of F_q^s in
    coordinates."""
    q, graph = code.params.q, code.graph
    offsets = np.array([w.reduce(y[v]) for v, _, _ in graph.edges], dtype=DTYPE)
    imaged = [matmul_mod(np.vstack([a, w.basis]), h, q) for a, h in zip(offsets, code.labels)]
    targets = np.zeros((graph.n_c, code.params.m), dtype=DTYPE)
    for (_, c, _), im in zip(graph.edges, imaged):
        targets[c] -= im[0]
    everything = AffineSubspace(np.zeros(w.dim, dtype=DTYPE), Subspace.full(w.dim, q))
    gains = tuple(im[1:] for im in imaged)
    return MessageState((everything,) * graph.n_e, offsets, w, gains, targets % q, t=0)


def iterate(state: MessageState, code: LiftedCode) -> MessageState:
    """One flooding round; every edge updates from iteration-t values.

    Images p_j G_j, C_j G_j stay raw; edge i's check output is the preimage
    {c : c G_i in (b_a - sum_{j != i} p_j G_j) + span(C_j G_j, j != i)}, and
    it lies in the anchor, so it becomes the message on i's other edge."""
    q, graph = code.params.q, code.graph
    imaged = [
        matmul_mod(np.vstack([c.offset, c.direction.basis]), g, q)
        for c, g in zip(state.coords, state.gains)
    ]
    edges, items = [], []
    for a, edges_of_a in enumerate(graph.check_edges()):
        rest = state.targets[a] - sum(imaged[e][0] for e in edges_of_a)
        for e in edges_of_a:
            stacked = np.vstack([rest + imaged[e][0], *(imaged[j][1:] for j in edges_of_a if j != e)])
            edges.append(e)
            items.append((state.gains[e], stacked[0], stacked[1:]))
    check_out = [None] * graph.n_e
    for e, out in zip(edges, preimage_batch(items, q)):
        if out is None:
            raise EmptyIntersectionFault(f"empty check output on edge {e}, iteration {state.t + 1}")
        check_out[e] = out
    new_coords = [None] * graph.n_e
    for e1, e2 in graph.var_edges():
        new_coords[e1], new_coords[e2] = check_out[e2], check_out[e1]
    return replace(state, coords=tuple(new_coords), t=state.t + 1)


def decide(state: MessageState, code: LiftedCode) -> Tuple[np.ndarray, np.ndarray]:
    """Row estimates from pairwise message intersections.

    Returns (x_hat, determined); zero-padded rows are always determined as 0.
    """
    q, m, l = code.params.q, code.params.m, code.params.l
    x_hat = np.zeros((l, m), dtype=DTYPE)
    determined = np.zeros(l, dtype=bool)
    determined[code.n_v :] = True
    # coords[e1] & coords[e2] as AffineSubspace.intersect forms it, batched
    var_edges, coords = code.graph.var_edges(), state.coords
    items = [
        (coords[e1].direction.basis, (coords[e2].offset - coords[e1].offset) % q, coords[e2].direction.basis)
        for e1, e2 in var_edges
    ]
    for v, ((e1, _), meet) in enumerate(zip(var_edges, preimage_batch(items, q))):
        if meet is None:
            raise EmptyIntersectionFault(
                f"empty decision intersection at variable {v}, iteration {state.t}"
            )
        if meet.dim == 0:
            determined[v] = True
            inter = AffineSubspace.from_coords(coords[e1].offset, meet, coords[e1].direction)
            x_hat[v] = AffineSubspace.from_coords(state.offsets[e1], inter, state.w).offset
    return x_hat, determined


def _round_stats(state: MessageState, determined: np.ndarray, code: LiftedCode) -> dict:
    dims = [c.dim for c in state.coords]
    return {
        "t": state.t,
        "mean_dim": float(np.mean(dims)) if dims else 0.0,
        "max_dim": int(max(dims)) if dims else 0,
        "determined": int(determined[: code.n_v].sum()),
    }


def decode(y: np.ndarray, code: LiftedCode, config: DecoderConfig = DecoderConfig()) -> DecodeResult:
    """Full pipeline: noise-space recovery, init, flooding rounds, decision.
    Without the whole noise space no round runs and no row is determined."""
    params = code.params
    w = recover_noise_space(y, params, code.omega_prime)
    x_hat = np.zeros((params.l, params.m), dtype=DTYPE)
    determined = np.arange(params.l) >= code.n_v
    t, stats = 0, []
    if w.dim == params.s:
        state = init_messages(as_matrix(y, params.q), w, code)
        x_hat, determined = decide(state, code)
        stats.append(_round_stats(state, determined, code))
        while not determined.all() and state.t < config.max_iters:
            state = iterate(state, code)
            x_hat, determined = decide(state, code)
            stats.append(_round_stats(state, determined, code))
        t = state.t
    return DecodeResult(
        x_hat=x_hat,
        determined=determined,
        iterations_used=t,
        stats=tuple(stats),
        noise_space_ok=w.dim == params.s,
        noise_space_dim=w.dim,
        n_constrained=code.n_v,
    )


def symbol_error_rate(result: DecodeResult, truth_x: np.ndarray) -> float:
    """Fraction of constrained rows left undetermined or decided wrongly."""
    n = result.n_constrained
    if n == 0:
        return 0.0
    right = _rows_equal(result, truth_x) & result.determined[:n]
    return int(n - right.sum()) / n


def wrong_determinations(result: DecodeResult, truth_x: np.ndarray) -> int:
    """Number of determined constrained rows that disagree with the truth."""
    wrong = ~_rows_equal(result, truth_x) & result.determined[: result.n_constrained]
    return int(wrong.sum())


def _rows_equal(result: DecodeResult, truth_x: np.ndarray) -> np.ndarray:
    """Per constrained row: does the estimate equal the truth?"""
    n = result.n_constrained
    truth_x = np.asarray(truth_x, dtype=DTYPE)
    return (result.x_hat[:n] == truth_x[:n]).all(axis=1)
