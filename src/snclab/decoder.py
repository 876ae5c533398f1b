"""Iterative affine-subspace message-passing decoder.

Messages are affine subspaces of F_q^m.  With W the recovered noise space and
abar the other check of variable i, a full flooding round applies

    W_{i->a}^{t+1} = (y_i + W)  ∩  [ sum_{j in d(abar), j != i} W_{j->abar} h_{j,abar} ] h_{i,abar}^{-1}

simultaneously on all directed edges; a row is decided once its two messages
intersect in a single point.  A check node skips the trivial sums (with the
zero point, and the full sum no edge reads): 3d - 6 additions at degree d >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

from .channel import SncParams
from .ensemble import LiftedCode, constrained_rows
from .kernels import DTYPE
from .linalg import AffineSubspace, Subspace, as_matrix, row_space


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
    """Per-directed-edge messages plus the per-variable anchors y_i + W."""

    messages: tuple
    anchors: tuple
    t: int


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
    """t = 0: every directed edge (i -> a) carries y_i + W."""
    anchors = tuple(
        AffineSubspace.from_offset(y[v], w) for v in range(code.n_v)
    )
    messages = tuple(anchors[v] for v, _, _ in code.graph.edges)
    return MessageState(messages=messages, anchors=anchors, t=0)


def _leave_one_out_sums(terms: List[AffineSubspace]) -> List[AffineSubspace]:
    """``sum_{j != i} terms[j]`` for every i, from prefix and suffix sums that
    never start at the zero point: 3d - 6 adds for d >= 2 terms.  A lone
    term's leave-one-out sum is empty, the zero point."""
    if len(terms) < 2:
        return [AffineSubspace.point(np.zeros(t.ambient, dtype=DTYPE), t.q) for t in terms]
    prefix = list(accumulate(terms[:-1], AffineSubspace.add))  # terms[0] + ... + terms[i]
    suffix = list(accumulate(terms[:0:-1], AffineSubspace.add))[::-1]  # terms[i+1] + ... + terms[-1]
    return [suffix[0], *(a.add(b) for a, b in zip(prefix, suffix[1:])), prefix[-1]]


def iterate(state: MessageState, code: LiftedCode) -> MessageState:
    """One flooding round; every edge updates from iteration-t values."""
    labels = code.labels
    inverses = code.label_inverses()
    graph = code.graph

    imaged = [state.messages[e].image(labels[e]) for e in range(graph.n_e)]

    # check outputs: leave-one-out sums; the check equation gives
    # x_i = -(sum_{j != i} x_j h_j) h_i^{-1}, so the sum is negated before the
    # inverse image (a no-op at q = 2)
    check_out: List[Optional[AffineSubspace]] = [None] * graph.n_e
    for edges_of_c in graph.check_edges():
        sums = _leave_one_out_sums([imaged[e] for e in edges_of_c])
        for e, loo in zip(edges_of_c, sums):
            check_out[e] = loo.negate().image(inverses[e])

    new_messages: List[Optional[AffineSubspace]] = [None] * graph.n_e
    for v, (e1, e2) in enumerate(code.graph.var_edges()):
        anchor = state.anchors[v]
        m1 = anchor.intersect(check_out[e2])
        m2 = anchor.intersect(check_out[e1])
        if m1 is None or m2 is None:
            raise EmptyIntersectionFault(
                f"empty affine intersection at variable {v}, iteration {state.t + 1}"
            )
        new_messages[e1] = m1
        new_messages[e2] = m2
    return MessageState(messages=tuple(new_messages), anchors=state.anchors, t=state.t + 1)


def decide(state: MessageState, code: LiftedCode) -> Tuple[np.ndarray, np.ndarray]:
    """Row estimates from pairwise message intersections.

    Returns (x_hat, determined); zero-padded rows are always determined as 0.
    """
    q, m, l = code.params.q, code.params.m, code.params.l
    x_hat = np.zeros((l, m), dtype=DTYPE)
    determined = np.zeros(l, dtype=bool)
    determined[code.n_v :] = True
    for v, (e1, e2) in enumerate(code.graph.var_edges()):
        inter = state.messages[e1].intersect(state.messages[e2])
        if inter is None:
            raise EmptyIntersectionFault(
                f"empty decision intersection at variable {v}, iteration {state.t}"
            )
        if inter.dim == 0:
            determined[v] = True
            x_hat[v] = inter.offset
    return x_hat, determined


def _round_stats(state: MessageState, determined: np.ndarray, code: LiftedCode) -> dict:
    dims = [msg.dim for msg in state.messages]
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
