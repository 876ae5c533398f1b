"""Output checks that do not use snclab's own code.

Each check takes plain data (arrays, parsed records, parsed CSV/JSON) and
returns a list of failure messages; an empty list means the check passed.
The GF(q) elimination, the Gaussian binomials and the exact laws below are
written here from their definitions, so a fault in ``snclab.kernels``,
``snclab.linalg`` or ``snclab.de`` cannot hide itself.

Statistical checks use non-asymptotic tail bounds (Bernstein for means,
Bretagnolle-Huber-Carol for histograms) at the false-alarm rate ``DELTA``,
split over the tests of one call by the union bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

DELTA = 1e-6  # false-alarm rate of all statistical tests of one call


# ---------------------------------------------------------------------------
# GF(q) algebra
# ---------------------------------------------------------------------------


def rank_mod(a, q: int) -> int:
    """Rank over F_q (q prime) by forward elimination."""
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % q
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % q
        r += 1
    return r


def constraint_system(edges, labels, n_v: int, n_c: int, m: int, q: int) -> np.ndarray:
    """Lifted check system: unknown (v, r) is column v*m + r and check c
    contributes the m equations sum_v x_v h_{v,c} = 0."""
    sys = np.zeros((n_c * m, n_v * m), dtype=np.int64)
    for (v, c, _), h in zip(edges, labels):
        sys[c * m : (c + 1) * m, v * m : (v + 1) * m] = np.asarray(h).T % q
    return sys


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of F_q^n (0 outside 0 <= k <= n)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def meet_law(a: int, b: int, m: int, q: int) -> List[Fraction]:
    """Law of dim(A ∩ B) for A fixed of dim a and B uniform of dim b in F_q^m:
    P{j} = q^((a-j)(b-j)) [a, j]_q [m-a, b-j]_q / [m, b]_q, j = 0..min(a, b)."""
    total = gaussian_binomial(m, b, q)
    return [
        Fraction(q ** ((a - j) * (b - j)) * gaussian_binomial(a, j, q)
                 * gaussian_binomial(m - a, b - j, q), total)
        for j in range(min(a, b) + 1)
    ]


def check_same_outputs(paths, other_paths) -> List[str]:
    """Two runs of one call wrote byte-identical files."""
    return [
        f"{b} differs from {a}"
        for a, b in zip(paths, other_paths)
        if open(a, "rb").read() != open(b, "rb").read()
    ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def check_codeword(x, edges, labels, n_v: int, q: int) -> List[str]:
    """sum_v x_v h_{v,c} = 0 at every check and x is zero on the padded rows."""
    x = np.asarray(x, dtype=np.int64)
    fails = []
    if np.any(x[n_v:]):
        fails.append("codeword is nonzero on the zero-padded rows")
    n_c = 1 + max(c for _, c, _ in edges)
    acc = np.zeros((n_c, x.shape[1]), dtype=np.int64)
    for (v, c, _), h in zip(edges, labels):
        acc[c] += x[v] @ np.asarray(h, dtype=np.int64)
    bad = np.flatnonzero((acc % q).any(axis=1))
    if bad.size:
        fails.append(f"codeword violates checks {bad.tolist()}")
    return fails


def check_decoded_rows(x_hat, determined, x, n_v: int) -> List[str]:
    """Every row the decoder marks determined equals the transmitted row."""
    x_hat = np.asarray(x_hat)
    x = np.asarray(x)
    rows = [v for v in range(n_v) if determined[v] and not np.array_equal(x_hat[v], x[v])]
    return [f"decoded rows {rows} differ from the transmitted rows"] if rows else []


def check_info_length(info_length: int, edges, labels, n_v: int, n_c: int, m: int, q: int) -> List[str]:
    """info_length >= m (n_v - n_c) and info_length = n_v m - rank(system)."""
    fails = []
    if info_length < m * (n_v - n_c):
        fails.append(f"info_length {info_length} below the design bound {m * (n_v - n_c)}")
    rank = rank_mod(constraint_system(edges, labels, n_v, n_c, m, q), q)
    if info_length != n_v * m - rank:
        fails.append(f"info_length {info_length} != n_v*m - rank = {n_v * m - rank}")
    return fails


def check_noise_dim(record: dict, y, n_zero: int, s: int, q: int) -> List[str]:
    """The record's noise_dim (and noise_ok) match the rank of y's padded rows."""
    rank = rank_mod(np.asarray(y)[-n_zero:], q) if n_zero else 0
    fails = []
    if record["noise_dim"] != rank:
        fails.append(f"trial {record['trial']}: noise_dim {record['noise_dim']} != rank {rank}")
    if record["noise_ok"] != (rank == s):
        fails.append(f"trial {record['trial']}: noise_ok {record['noise_ok']} with rank {rank} of {s}")
    return fails


def check_summary(summary: Dict[str, str], records: Sequence[dict]) -> List[str]:
    """The totals in summary.csv equal sums over trials.jsonl."""
    n = len(records)
    want = {
        "trials": n,
        "rows_per_trial": records[0]["n_rows"] if records else 0,
        "ser": sum(r["ser"] for r in records) / n if n else 0.0,
        "block_errors": sum(1 for r in records if r["symbol_errors"] > 0),
        "span_failures": sum(1 for r in records if not r["noise_ok"]),
        "faults": sum(1 for r in records if r["fault"]),
        "wrong_rows": sum(r["wrong"] for r in records),
        "mean_iterations": sum(r["iterations"] for r in records) / n if n else 0.0,
    }
    want["block_err_rate"] = want["block_errors"] / n if n else 0.0
    fails = []
    for key, value in want.items():
        got = float(summary[key])
        if not math.isclose(got, value, rel_tol=1e-12, abs_tol=1e-12):
            fails.append(f"summary {key} = {summary[key]}, trials.jsonl gives {value}")
    return fails


# ---------------------------------------------------------------------------
# exact finite-m density evolution
# ---------------------------------------------------------------------------


class ExactDe:
    """Exact law of the population-DE message dimension D^(t).

    A member draws an edge degree n ~ rho and n-1 members of the previous
    generation; the sum of their (independent, uniform) subspaces is uniform
    given its dimension, so its dimension follows from repeated meets, and
    the new member is its intersection with a fixed D-dim subspace.  Laws
    are float vectors over 0..D; ``laws`` also propagates the population
    sampling error of size P to first order (the linear-noise
    approximation), which is exact at t = 1.
    """

    def __init__(self, rho: Dict[int, Fraction], m: int, d_cap: int, q: int):
        self.rho = {n: float(mass) for n, mass in rho.items()}
        self.m, self.d_cap = m, d_cap
        # join[a, d, a'] = P{dim(A + B) = a'} for dim A = a, B uniform of dim d
        self.join = np.zeros((m + 1, d_cap + 1, m + 1))
        for a in range(m + 1):
            for d in range(d_cap + 1):
                for j, p in enumerate(meet_law(a, d, m, q)):
                    if a + d - j <= m:
                        self.join[a, d, a + d - j] += float(p)
        # cut[a, j] = P{dim(S ∩ V) = j} for S uniform of dim a, V fixed of dim D
        self.cut = np.zeros((m + 1, d_cap + 1))
        for a in range(m + 1):
            for j, p in enumerate(meet_law(d_cap, a, m, q)):
                self.cut[a, j] = float(p)

    def _sum_laws(self, p: np.ndarray, count: int) -> List[np.ndarray]:
        laws = [np.eye(self.m + 1)[0]]
        for _ in range(count):
            laws.append(np.einsum("a,d,adb->b", laws[-1], p, self.join))
        return laws

    def step(self, p: np.ndarray):
        """(K(p), Jacobian of K at p) for the polynomial extension of K."""
        max_n = max(self.rho)
        sums = self._sum_laws(p, max_n - 1)
        out = np.zeros(self.d_cap + 1)
        jac = np.zeros((self.d_cap + 1, self.d_cap + 1))
        for n, mass in self.rho.items():
            if n <= 1:
                out[0] += mass
                continue
            out += mass * sums[n - 1] @ self.cut
            # d/dp_j: one of the n-1 members pinned at dimension j
            pinned = np.einsum("a,adb->db", sums[n - 2], self.join)
            jac += mass * (n - 1) * (pinned @ self.cut).T
        return out, jac

    def laws(self, generations: int, population: int):
        """Exact laws p_0..p_T and linear-noise covariances of the
        empirical law of a population of the given size."""
        p = np.eye(self.d_cap + 1)[self.d_cap]
        cov = np.zeros((self.d_cap + 1, self.d_cap + 1))
        laws, covs = [p], [cov]
        for _ in range(generations):
            p_next, jac = self.step(p)
            cov = jac @ cov @ jac.T + (np.diag(p_next) - np.outer(p_next, p_next)) / population
            p = p_next
            laws.append(p)
            covs.append(cov)
        return laws, covs


def first_generation_tail(rho: Dict[int, Fraction], m: int, d_cap: int, q: int, at_least: int) -> Fraction:
    """P{D^(1) >= at_least}, exactly: every parent has dimension D."""
    total = Fraction(0)
    for n, mass in rho.items():
        law = {0: Fraction(1)}
        for _ in range(n - 1):
            nxt: Dict[int, Fraction] = {}
            for a, pa in law.items():
                for j, pj in enumerate(meet_law(a, d_cap, m, q)):
                    if pj:
                        nxt[a + d_cap - j] = nxt.get(a + d_cap - j, 0) + pa * pj
            law = nxt
        for a, pa in law.items():
            cut = meet_law(d_cap, a, m, q)
            total += mass * pa * sum(cut[at_least:], Fraction(0))
    return total


def bernstein_radius(var: float, spread: float, tests: int) -> float:
    """Deviation of a mean that a Bernstein bound allows at false-alarm
    DELTA/tests: sqrt(2 var L) + spread L / 3, var being the variance of
    the mean and spread the per-sample range divided by the sample count."""
    log_term = math.log(2 * tests / DELTA)
    return math.sqrt(2 * max(var, 0.0) * log_term) + spread * log_term / 3


def check_population_csv(rows: Sequence[Dict[str, str]], generations: Sequence[np.ndarray], d_cap: int) -> List[str]:
    """The CSV's per-generation summary equals the captured population."""
    fails = []
    if len(rows) != len(generations):
        return [f"CSV has {len(rows)} generations, the run produced {len(generations)}"]
    for row, dims in zip(rows, generations):
        dims = np.asarray(dims)
        want = {
            "frac_zero": np.count_nonzero(dims == 0) / dims.size,
            "frac_full": np.count_nonzero(dims == d_cap) / dims.size,
            "mean_dim": dims.sum() / dims.size,
        }
        for key, value in want.items():
            if not math.isclose(float(row[key]), value, rel_tol=1e-12, abs_tol=1e-12):
                fails.append(f"t={row['t']}: CSV {key} = {row[key]}, population gives {value}")
    return fails


def check_population_law(rows: Sequence[Dict[str, str]], exact: ExactDe, population: int) -> List[str]:
    """frac_zero, frac_full and mean_dim of every generation lie within the
    sampling-error bound of the exact law of D^(t)."""
    d = exact.d_cap
    laws, covs = exact.laws(len(rows) - 1, population)
    stats = {
        "frac_zero": (np.eye(d + 1)[0], 1.0),
        "frac_full": (np.eye(d + 1)[d], 1.0),
        "mean_dim": (np.arange(d + 1, dtype=float), float(d)),
    }
    tests = len(rows) * len(stats)
    fails = []
    for row, law, cov in zip(rows, laws, covs):
        for key, (f, spread) in stats.items():
            want = float(f @ law)
            radius = bernstein_radius(float(f @ cov @ f), spread / population, tests)
            got = float(row[key])
            if abs(got - want) > radius:
                fails.append(f"t={row['t']}: {key} = {got:.6f}, exact law {want:.6f} +- {radius:.6f}")
    return fails


# ---------------------------------------------------------------------------
# deviation grid
# ---------------------------------------------------------------------------


def grid_cases(max_m: int) -> int:
    """Oracle cases of the deviation grid: 2 fields x 5 slacks x cells."""
    return 2 * 5 * sum((m + 1) ** 2 for m in range(1, max_m + 1))


def check_deviation_samples(cells: Sequence[tuple]) -> List[str]:
    """cells: (q, m, d1, d2, dims).  Every sample lies in the possible range;
    each cell's histogram is within a Bretagnolle-Huber-Carol radius of the
    exact meet law in total variation; and per field the pooled deviation of
    the sample sums from their exact means is within a Bernstein radius.
    False alarm over all tests is at most DELTA (union bound)."""
    fails = []
    tests = len(cells) + 2
    pooled: Dict[int, List[float]] = {}
    for q, m, d1, d2, dims in cells:
        dims = np.asarray(dims)
        lo, hi = max(0, d1 + d2 - m), min(d1, d2)
        if dims.size and (dims.min() < lo or dims.max() > hi):
            fails.append(f"q={q} m={m} d1={d1} d2={d2}: sample outside [{lo}, {hi}]")
            continue
        law = np.array([float(p) for p in meet_law(d1, d2, m, q)])
        n = dims.size
        hist = np.bincount(dims, minlength=law.size) / n
        support = int(np.count_nonzero(law))
        if support > 1:
            radius = math.sqrt((math.log(2 ** support - 2) + math.log(tests / DELTA)) / (2 * n))
            tv = 0.5 * float(np.abs(hist - law).sum())
            if tv > radius:
                fails.append(f"q={q} m={m} d1={d1} d2={d2}: TV {tv:.3f} from the exact law > {radius:.3f}")
        j = np.arange(law.size)
        mean = float(j @ law)
        acc = pooled.setdefault(q, [0.0, 0.0, 0.0])
        acc[0] += float(dims.sum()) - n * mean
        acc[1] += n * float((j - mean) ** 2 @ law)
        acc[2] = max(acc[2], float(hi - lo))
    for q, (dev, var, spread) in pooled.items():
        radius = bernstein_radius(var, spread, tests)
        if abs(dev) > radius:
            fails.append(f"q={q}: pooled sample sum deviates {dev:.1f} from exact means (> {radius:.1f})")
    return fails


def check_oracle_report(report: dict, max_m: int, samples: int) -> List[str]:
    """The oracle's case count equals 2*5*sum_{m<=M} (m+1)^2, it passed, and
    it drew one sample batch per (q, m, d1, d2) cell."""
    (dev,) = [r for r in report["oracles"] if r["name"] == "deviation-bounds"]
    fails = []
    if dev["cases"] != grid_cases(max_m):
        fails.append(f"oracle cases {dev['cases']} != {grid_cases(max_m)}")
    if not (report["passed"] and dev["passed"]) or dev["failures"]:
        fails.append(f"oracle reports {len(dev['failures'])} failing cells")
    if samples != grid_cases(max_m) // 5:
        fails.append(f"{samples} sample batches drawn, grid has {grid_cases(max_m) // 5} cells")
    return fails
