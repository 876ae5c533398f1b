"""Density evolution for the subspace decoder, in two layers.

Finite-m layer: the law of the message dimension D^(t) follows a recursion
whose kernel is "draw n ~ rho, sum n-1 uniform subspaces of the current dims,
intersect with a fixed D-dim subspace"; we realize that kernel by exact
random-subspace sampling over a fixed-size population, a chunk of members at
a time: bases are drawn speculatively and checked by batched ranks, with the
draws of a one-member-at-a-time rejection loop.

Rescaled layer: at integer k = (1-lambda)/(lambda*omega) the normalized
dimensions take values {0, 1} only and their mass alpha_t obeys the scalar
recursion alpha_{t+1} = F_{k,rho}(alpha_t) with
F_{k,rho}(a) = sum_n rho_n f_{k,n}(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence

import mpmath
import numpy as np

from .degrees import EdgeDegreeDistribution
from .kernels import rank_mod_batch
from .linalg import full_rank_probability, gaussian_binomial, random_full_rank_stack

NOISE_FLOOR = 1e-12
EXACT_DENOM_BITS = 4096
MP_DPS = 60
# Members drawn and ranked together; a chunk's stacks stay a few tens of kB.
_CHUNK = 32


# ---------------------------------------------------------------------------
# scalar recursion
# ---------------------------------------------------------------------------


def f_poly(k: int, i: int, alpha):
    """f_{k,i}(a) = P{Bin(i-1, a) >= k} = sum_{j=k}^{i-1} C(i-1,j) a^j (1-a)^{i-1-j}.

    Exact for Fraction inputs; f_{k,k} is identically zero.
    """
    if i < k:
        raise ValueError(f"need i >= k, got i={i}, k={k}")
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    one = alpha - alpha + 1  # unit of alpha's arithmetic type
    total = alpha - alpha
    for j in range(k, i):
        total += comb(i - 1, j) * alpha**j * (one - alpha) ** (i - 1 - j)
    return total


def _coerce_mass(mass: Fraction, alpha):
    if isinstance(alpha, Fraction):
        return mass
    if isinstance(alpha, mpmath.mpf):
        return mpmath.mpf(mass.numerator) / mpmath.mpf(mass.denominator)
    return float(mass)


def big_f(k: int, rho: EdgeDegreeDistribution, alpha):
    """F_{k,rho}(a) = sum_n rho_n f_{k,n}(a)."""
    total = alpha - alpha
    for n, mass in rho.coeffs:
        if n < k:
            raise ValueError(f"rho has mass on degree {n} < k={k}")
        if n == k:
            continue  # f_{k,k} = 0
        total += _coerce_mass(mass, alpha) * f_poly(k, n, alpha)
    return total


def fixed_point_residual(k: int, b_eval: int, alpha) -> float:
    """|sum_{i=k+1}^{b_eval} rho*_{k,i} f_{k,i}(a) - a|.

    The untruncated family satisfies the fixed-point identity exactly, so the
    residual is the tail mass past b_eval and is at most (k-1)/(b_eval-1).
    Streams the binomial tail recurrence, O(b_eval) time.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if b_eval < k + 1:
        raise ValueError(f"need b_eval >= k+1, got {b_eval}")
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    total = 0.0
    s = a**k  # P{Bin(n, a) >= k} at n = k
    t = k * a ** (k - 1) * (1 - a)  # P{Bin(n, a) = k-1} at n = k
    n = k
    for i in range(k + 1, b_eval + 1):
        total += (k - 1) / ((i - 1) * (i - 2)) * s
        s += a * t
        t *= (n + 1) / (n + 2 - k) * (1 - a)
        n += 1
    return abs(total - a)


@dataclass(frozen=True)
class ScalarDeConfig:
    k: int
    rho: EdgeDegreeDistribution
    max_iters: int = 50
    epsilon_stop: float = 1e-12

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")
        if self.rho.min_degree < self.k:
            raise ValueError(
                f"rho must be supported on degrees >= k={self.k}, "
                f"found degree {self.rho.min_degree}"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class ScalarDeTrajectory:
    """alpha_t sequence (Fraction while small denominators, then mpf)."""

    alphas: tuple
    gamma_estimate: Optional[float]

    def alphas_float(self) -> List[float]:
        return [float(a) for a in self.alphas]


def _estimate_gamma(alphas: Sequence) -> Optional[float]:
    """Late-stage ratio log a_{t+1} / log a_t over the last three iterates
    above the numerical noise floor."""
    usable = [a for a in alphas if a > NOISE_FLOOR]
    tail = usable[-3:]
    ratios = []
    for lo, hi in zip(tail, tail[1:]):
        flo, fhi = float(lo), float(hi)
        if flo >= 1.0 or fhi >= 1.0:
            continue
        ratios.append(math.log(fhi) / math.log(flo))
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def scalar_de_run(config: ScalarDeConfig) -> ScalarDeTrajectory:
    """Iterate alpha_{t+1} = F_{k,rho}(alpha_t) from alpha_0 = 1.

    Arithmetic is exact rational until denominators blow past
    EXACT_DENOM_BITS bits, then switches to mpmath at MP_DPS digits, so tiny
    alphas are genuine values rather than float artifacts.
    """
    with mpmath.workdps(MP_DPS):
        alpha = Fraction(1)
        alphas = [alpha]
        for _ in range(config.max_iters):
            if alpha <= config.epsilon_stop:
                break
            if (
                isinstance(alpha, Fraction)
                and alpha.denominator.bit_length() > EXACT_DENOM_BITS
            ):
                alpha = mpmath.mpf(alpha.numerator) / mpmath.mpf(alpha.denominator)
            alpha = big_f(config.k, config.rho, alpha)
            alphas.append(alpha)
        gamma = _estimate_gamma(alphas)
    return ScalarDeTrajectory(alphas=tuple(alphas), gamma_estimate=gamma)


# ---------------------------------------------------------------------------
# rescaled sample update and dimension bounds
# ---------------------------------------------------------------------------


def xi_sample_update(k_ratio, xis: Sequence) -> float:
    """Clamp of sum(xis) + 1 - (1-lambda)/(lambda*omega) to [0, 1]."""
    k_ratio = float(k_ratio)
    if k_ratio <= 0:
        raise ValueError(f"k_ratio must be positive, got {k_ratio}")
    for x in xis:
        if not 0 <= x <= 1:
            raise ValueError(f"xi values must be in [0, 1], got {x}")
    return min(max(float(sum(xis)) + 1.0 - k_ratio, 0.0), 1.0)


def _check_dim(d: int, m: int, name: str) -> None:
    if not 0 <= d <= m:
        raise ValueError(f"{name}={d} out of range [0, {m}]")


def meet_dim(d1: int, d2: int, m: int) -> int:
    """Typical intersection dimension max(0, d1 + d2 - m)."""
    _check_dim(d1, m, "d1")
    _check_dim(d2, m, "d2")
    return max(0, d1 + d2 - m)


def join_dim(d1: int, d2: int, m: int) -> int:
    """Typical sum dimension min(m, d1 + d2)."""
    _check_dim(d1, m, "d1")
    _check_dim(d2, m, "d2")
    return min(m, d1 + d2)


def typical_intersection_dim(dims: Sequence[int], d: int, m: int) -> int:
    """Typical dim of (V_1 + ... + V_{n-1}) ∩ V: clamp(sum + d - m, 0, d)."""
    _check_dim(d, m, "d")
    for di in dims:
        _check_dim(di, m, "dims[i]")
    return min(max(sum(int(x) for x in dims) + d - m, 0), d)


# ---------------------------------------------------------------------------
# population dynamics (finite-m layer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationDeConfig:
    q: int
    m: int
    d_cap: int  # = l*omega, the noise-space dimension D
    rho: EdgeDegreeDistribution
    population_size: int = 1000
    max_iters: int = 10

    def __post_init__(self):
        if self.d_cap < 0 or self.d_cap > self.m:
            raise ValueError(f"need 0 <= D <= m, got D={self.d_cap}, m={self.m}")
        if self.population_size < 100:
            raise ValueError("population_size must be >= 100")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class PopulationState:
    dims: np.ndarray
    t: int


def population_summary(state: PopulationState, d_cap: int) -> Dict[str, float]:
    d = state.dims
    frac_zero = float((d == 0).mean())
    frac_full = float((d == d_cap).mean()) if d_cap > 0 else 1.0
    return {
        "t": state.t,
        "frac_zero": frac_zero,
        "frac_full": frac_full,
        "frac_interior": max(0.0, 1.0 - frac_zero - frac_full),
        "mean_dim": float(d.mean()),
        "frac_ge_half": float((d >= d_cap / 2).mean()) if d_cap > 0 else 1.0,
    }


def _kernel_dims(
    dims: np.ndarray, ns: np.ndarray, d_cap: int, m: int, q: int, rng: np.random.Generator
) -> np.ndarray:
    """dim((V_1 + ... + V_{n-1}) ∩ V) for members of degrees ``ns``, with V
    the span of the first d_cap coordinates (a valid stand-in for any fixed
    subspace, by GL-invariance).  A member picks n-1 members of ``dims``,
    then draws a full-rank basis per nonzero pick, as a per-member loop does.

    Candidates are assumed full rank while drawn and a window of them is
    ranked at once; at the first rejected one the generator goes back to just
    after its draw and the slot is drawn again, so the bases and the final
    generator state are the loop's.
    """
    d_max = int(dims.max())
    window = max(1, int(np.maximum(ns - 1, 0).sum()))  # every candidate, if none is rejected
    reject = 1.0 - full_rank_probability(d_max, m, q)
    if reject > 0:
        # about one rejection per window, so few speculative draws are wasted
        window = min(window, math.ceil(1 / reject))
    narrow = np.min_scalar_type(q - 1)
    stack = np.zeros((len(ns), max(int(ns.max()) - 1, 0) * d_max, m), dtype=narrow)
    counts = np.zeros(len(ns), dtype=np.int64)  # rows stacked per member
    member, picked, slot = 0, None, 0  # next draw: this member's picks, or its slot-th basis
    while member < len(ns):
        block = np.zeros((window, d_max, m), dtype=narrow)
        drawn = []  # (member, its picks, slot, dim, generator state after the draw)
        while len(drawn) < window and member < len(ns):
            if picked is None:
                n = int(ns[member])
                if n <= 1:
                    member += 1
                    continue
                picked = dims[rng.integers(0, len(dims), size=n - 1)]
                picked, slot = picked[picked > 0], 0
            if slot == len(picked):
                member, picked = member + 1, None
                continue
            d = int(picked[slot])
            block[len(drawn), :d] = rng.integers(0, q, size=(d, m), dtype=np.int64)
            drawn.append((member, picked, slot, d, rng.bit_generator.state))
            slot += 1
        ranks = rank_mod_batch(block[: len(drawn)], q)
        for k, (i, p, s, d, state) in enumerate(drawn):
            if ranks[k] != d:
                rng.bit_generator.state = state
                member, picked, slot = i, p, s
                break
            stack[i, counts[i] : counts[i] + d] = block[k, :d]
            counts[i] += d
    stack = stack[:, : counts.max()]
    # dim(S + V) = d_cap + rank of S outside V's coordinates
    return rank_mod_batch(stack, q) - rank_mod_batch(stack[:, :, d_cap:], q)


def population_de_run(
    config: PopulationDeConfig, rng: np.random.Generator
) -> List[PopulationState]:
    """Fixed-size population stand-in for the distributional recursion.

    Starts with every member at D = l*omega; each generation resamples every
    member through the kernel, ``_CHUNK`` members at a time.  The all-zero
    population is absorbing, so remaining generations are filled without
    sampling once it is reached.
    """
    degrees = [d for d, _ in config.rho.coeffs]
    probs = np.array([float(p) for _, p in config.rho.coeffs])
    probs = probs / probs.sum()
    size = config.population_size
    dims = np.full(size, config.d_cap, dtype=np.int64)
    states = [PopulationState(dims=dims.copy(), t=0)]
    for t in range(1, config.max_iters + 1):
        if dims.any():
            ns = rng.choice(degrees, size=size, p=probs)
            new_dims = np.empty(size, dtype=np.int64)
            for lo in range(0, size, _CHUNK):
                new_dims[lo : lo + _CHUNK] = _kernel_dims(
                    dims, ns[lo : lo + _CHUNK], config.d_cap, config.m, config.q, rng
                )
            dims = new_dims
        states.append(PopulationState(dims=dims.copy(), t=t))
    return states


# ---------------------------------------------------------------------------
# deviation bounds (finite-m tail control)
# ---------------------------------------------------------------------------


def _binomial_pmf(k: int, n: int, p: float) -> float:
    if p == 0.0 or p == 1.0:
        return float(k == n * p)
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _binomial_tail_exceeds(k: int, n: int, p: float, level: float) -> bool:
    """P{Binomial(n, p) >= k} > level, for k above the mean n p: the terms
    fall from k on, so the sum stops once it passes the level or a term
    underflows."""
    total = 0.0
    for j in range(k, n + 1):
        term = _binomial_pmf(j, n, p)
        total += term
        if total > level:
            return True
        if term == 0.0:
            break
    return False


@dataclass(frozen=True)
class DeviationReport:
    m: int
    d1: int
    d2: int
    slack_k: int
    q: int
    trials: int
    floor: int
    floor_violations: int
    excess_count: int
    excess_freq: float
    bound: float
    level: float
    passed: bool

    @property
    def margin(self) -> float:
        """Largest excess of the frequency over the bound that passes: the
        counts k with P{Binomial(trials, bound) >= k} > level pass."""
        n, total = self.trials, 0.0
        for k in range(n, -1, -1):
            total += _binomial_pmf(k, n, self.bound)
            if total > self.level:
                return max(0.0, k / n - self.bound)
        return 0.0


def intersection_excess_bound(d1: int, d2: int, slack_k: int, m: int, q: int) -> float:
    """Markov bound on P{dim(V1 ∩ V2) >= d1⊙d2 + slack_k}, valid for every
    slack >= 0.

    |V1 ∩ V2| >= q^floor always, so Markov applies to the excess
    X = |V1 ∩ V2| - q^floor, whose exact mean is
    1 + (q^d1 - 1)(q^d2 - 1)/(q^m - 1) - q^floor; the event is
    X >= q^floor (q^slack - 1).  This keeps the q^-(m-d1-d2) gap factor of
    the asymptotic statement while staying true at boundary cells, where the
    looser display constant q^(d1+d2-m) for E|V1 ∩ V2| fails outright.
    Slack 0 is trivially 1.
    """
    floor = meet_dim(d1, d2, m)
    if slack_k == 0:
        return 1.0
    mean_excess = (
        Fraction(1)
        + Fraction((q**d1 - 1) * (q**d2 - 1), q**m - 1)
        - Fraction(q) ** floor
    )
    bound = mean_excess / (Fraction(q) ** floor * (Fraction(q) ** slack_k - 1))
    return float(min(bound, Fraction(1)))


def deviation_bound_check(
    m: int,
    d1: int,
    d2: int,
    slack_k: int,
    trials: int,
    q: int,
    rng: np.random.Generator,
    z_margin: float = 3.0,
) -> DeviationReport:
    """Sample V2 uniform given fixed V1 and test the intersection-dimension
    floor and tail bound empirically.

    A cell fails when its excess count has an exact binomial upper tail at
    the bound of at most Phi(-z_margin), the normal tail beyond z_margin
    sigmas; leave z_margin at 3 for a single cell, raise it to ~5 for grid
    sweeps (33k simultaneous cells at 3 sigma would produce false failures
    at the cells where the Markov bound is tight, e.g. d2 = m-1).
    """
    _check_dim(d1, m, "d1")
    _check_dim(d2, m, "d2")
    if slack_k < 0:
        raise ValueError("slack_k must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = sample_intersection_dims(m, d1, d2, q, trials, rng)
    return evaluate_deviation(m, d1, d2, slack_k, q, dims, z_margin=z_margin)


def sample_intersection_dims(
    m: int, d1: int, d2: int, q: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """dim(V1 ∩ V2) samples with V1 = span of first d1 coordinates and V2
    uniform of dimension d2; the bases are those a per-trial
    ``random_subspace_basis`` loop would draw."""
    bases = random_full_rank_stack(trials, d2, m, q, rng)
    # dim(V1 + V2) = d1 + rank of V2's basis outside the first d1 coords
    return d2 - rank_mod_batch(bases[:, :, d1:], q)


def evaluate_deviation(
    m: int, d1: int, d2: int, slack_k: int, q: int, dims: np.ndarray, z_margin: float = 3.0
) -> DeviationReport:
    trials = len(dims)
    floor = meet_dim(d1, d2, m)
    floor_violations = int((dims < floor).sum())
    excess_count = int((dims >= floor + slack_k).sum())
    excess_freq = excess_count / trials
    bound = intersection_excess_bound(d1, d2, slack_k, m, q)
    # the true probability is at most the bound, so the count is at most
    # Binomial(trials, bound) in law, and its exact tail is the p-value
    level = 0.5 * math.erfc(z_margin / math.sqrt(2.0))
    passed = floor_violations == 0 and (
        excess_freq <= bound or _binomial_tail_exceeds(excess_count, trials, bound, level)
    )
    return DeviationReport(
        m=m,
        d1=d1,
        d2=d2,
        slack_k=slack_k,
        q=q,
        trials=trials,
        floor=floor,
        floor_violations=floor_violations,
        excess_count=excess_count,
        excess_freq=excess_freq,
        bound=bound,
        level=level,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# decoder-facing prediction and distances
# ---------------------------------------------------------------------------


def nontrivial_intersection_probability(d1: int, d2: int, m: int, q: int) -> Fraction:
    """P{dim(V1 ∩ V2) > 0} for independent uniform subspaces of dims d1, d2
    in F_q^m, exactly (the trivially-intersecting count is q^(d1*d2) times a
    Gaussian binomial)."""
    _check_dim(d1, m, "d1")
    _check_dim(d2, m, "d2")
    if d1 + d2 > m:
        return Fraction(1)
    if d1 == 0 or d2 == 0:
        return Fraction(0)
    trivial = Fraction(
        q ** (d1 * d2) * gaussian_binomial(m - d1, d2, q), gaussian_binomial(m, d2, q)
    )
    return 1 - trivial


def row_undetermined_probability(dims: np.ndarray, d_cap: int, q: int) -> float:
    """Predicted probability that a variable row stays undecided: its two
    messages' directions (iid dims from the population, uniform subspaces of
    the D-dim noise space) intersect nontrivially."""
    dims = np.asarray(dims)
    if dims.size == 0 or d_cap == 0:
        return 0.0
    values, counts = np.unique(dims, return_counts=True)
    freqs = counts / counts.sum()
    total = 0.0
    for v1, f1 in zip(values, freqs):
        for v2, f2 in zip(values, freqs):
            p = nontrivial_intersection_probability(int(v1), int(v2), d_cap, q)
            total += float(f1) * float(f2) * float(p)
    return float(total)


def tv_distance(p: Dict, r: Dict) -> float:
    """Total variation distance: half the L1 gap of two distributions given
    as value -> probability mappings."""
    keys = set(p) | set(r)
    return 0.5 * sum(abs(float(p.get(k, 0.0)) - float(r.get(k, 0.0))) for k in keys)
