"""Density evolution: scalar recursion, population dynamics, dimension bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom, chi2

from snclab import de, linalg
from snclab.degrees import EdgeDegreeDistribution, rho_star
from snclab.de import (
    PopulationDeConfig,
    ScalarDeConfig,
    big_f,
    deviation_bound_check,
    evaluate_deviation,
    f_poly,
    fixed_point_residual,
    intersection_excess_bound,
    join_dim,
    meet_dim,
    nontrivial_intersection_probability,
    population_de_run,
    population_summary,
    row_undetermined_probability,
    sample_intersection_dims,
    scalar_de_run,
    tv_distance,
    typical_intersection_dim,
    xi_sample_update,
)
from snclab.kernels import rank_mod
from snclab.linalg import Subspace, gaussian_binomial, random_subspace_basis, subspace_intersection


# ---------------------------------------------------------------------------
# scalar layer
# ---------------------------------------------------------------------------


def test_f_poly_values():
    assert f_poly(2, 3, Fraction(1, 2)) == Fraction(1, 4)  # f_{2,3}(a) = a^2
    # f_{3,5}(a) = 4a^3 - 3a^4; at 3/5: 540/625 - 243/625
    assert f_poly(3, 5, Fraction(3, 5)) == Fraction(297, 625)
    assert abs(float(f_poly(3, 5, 0.6)) - 0.4752) < 1e-12
    for i in range(4, 9):
        assert f_poly(3, i, Fraction(1)) == 1
    assert f_poly(4, 4, Fraction(2, 3)) == 0  # f_{k,k} == 0


def test_f_poly_range_checks():
    with pytest.raises(ValueError):
        f_poly(3, 2, 0.5)
    with pytest.raises(ValueError):
        f_poly(2, 4, 1.5)


def test_big_f_values():
    rho = rho_star(3, 6).dist
    assert big_f(3, rho, Fraction(0)) == 0
    assert big_f(3, rho, Fraction(1)) == Fraction(3, 5)
    assert abs(big_f(3, rho, 0.6) - 0.21946) < 5e-6


def test_big_f_monotone_and_below_identity():
    for k, b in ((2, 5), (3, 6), (5, 12)):
        rho = rho_star(k, b).dist
        prev = 0.0
        for i in range(1, 1001):
            a = i / 1000
            val = big_f(k, rho, a)
            assert val >= prev
            if a > 0:
                assert val < a
            prev = val


def test_fixed_point_residual_zero_and_one():
    assert fixed_point_residual(3, 100, 0.0) == 0.0
    for k in (2, 3):
        res = fixed_point_residual(k, 1000, 1.0)
        assert abs(res - (k - 1) / 999) < 1e-12


def test_fixed_point_residual_small():
    # tail mass is (k-1)/(b-1) = 1/9999 = 1.00010001...e-4 exactly
    res = fixed_point_residual(2, 10_000, 0.5)
    assert res <= 1 / 9999 + 1e-12
    # matches a direct (slow) evaluation at a modest cutoff
    direct = abs(
        sum(float(Fraction(2 - 1, (i - 1) * (i - 2))) * f_poly(2, i, 0.5) for i in range(3, 400))
        - 0.5
    )
    stream = fixed_point_residual(2, 399, 0.5)
    assert abs(direct - stream) < 1e-10


def test_fixed_point_residual_tail_bound_grid():
    for k in (2, 3, 5):
        for a10 in range(1, 10):
            res = fixed_point_residual(k, 10_000, a10 / 10)
            assert res <= 1.1 * (k - 1) / 10_000


def test_scalar_run_known_trajectory():
    traj = scalar_de_run(ScalarDeConfig(k=3, rho=rho_star(3, 6).dist, max_iters=20))
    alphas = traj.alphas
    assert alphas[0] == 1
    assert alphas[1] == Fraction(3, 5)  # exact rational arithmetic
    assert abs(float(alphas[2]) - 0.219456) < 1e-6
    assert abs(float(alphas[3]) - 0.0168049) < 1e-6
    assert float(alphas[4]) <= 1e-5
    assert any(float(a) < 1e-6 for a in alphas[: 9])
    assert traj.gamma_estimate is not None
    assert 2.4 <= traj.gamma_estimate <= 3.6


def test_scalar_run_concentrated_rho_dies_immediately():
    rho = EdgeDegreeDistribution({3: Fraction(1)})
    traj = scalar_de_run(ScalarDeConfig(k=3, rho=rho, max_iters=5))
    assert traj.alphas[1] == 0


def test_scalar_run_strictly_decreasing():
    for k, b in ((2, 5), (3, 6), (4, 9)):
        traj = scalar_de_run(ScalarDeConfig(k=k, rho=rho_star(k, b).dist, max_iters=30))
        floats = traj.alphas_float()
        for lo, hi in zip(floats[1:], floats):
            assert lo < hi


def test_scalar_config_validation():
    with pytest.raises(ValueError):
        ScalarDeConfig(k=1, rho=rho_star(2, 5).dist)
    with pytest.raises(ValueError):
        ScalarDeConfig(k=4, rho=rho_star(3, 6).dist)  # mass below k


def test_xi_sample_update_values():
    assert xi_sample_update(3, (1, 1, 1)) == 1.0
    assert xi_sample_update(3, (1, 1, 0)) == 0.0
    assert xi_sample_update(2, ()) == 0.0
    assert xi_sample_update(1.5, (1,)) == 0.5
    with pytest.raises(ValueError):
        xi_sample_update(3, (1.5,))


# ---------------------------------------------------------------------------
# dimension clamps
# ---------------------------------------------------------------------------


def test_meet_join_values():
    assert meet_dim(6, 7, 10) == 3
    assert join_dim(6, 7, 10) == 10
    assert meet_dim(0, 5, 10) == 0
    assert join_dim(0, 5, 10) == 5


def test_meet_join_partition_identity():
    # at most one clamp can trigger, so meet + join = d1 + d2 everywhere
    for m in range(1, 13):
        for d1 in range(m + 1):
            for d2 in range(m + 1):
                assert meet_dim(d1, d2, m) + join_dim(d1, d2, m) == d1 + d2


def test_typical_intersection_dim():
    assert typical_intersection_dim((12, 12), 12, 36) == 0
    assert typical_intersection_dim((2, 2), 4, 8) == 0
    assert typical_intersection_dim((10, 10, 10), 6, 30) == 6
    assert typical_intersection_dim((4,), 4, 8) == 0
    with pytest.raises(ValueError):
        typical_intersection_dim((9,), 4, 8)


# ---------------------------------------------------------------------------
# population layer
# ---------------------------------------------------------------------------


def test_population_d_zero_stays_zero():
    cfg = PopulationDeConfig(q=2, m=8, d_cap=0, rho=rho_star(3, 6).dist, population_size=100, max_iters=3)
    states = population_de_run(cfg, np.random.default_rng(0))
    for st in states:
        assert not st.dims.any()


def test_population_degree_one_dies_in_one_step():
    rho = EdgeDegreeDistribution({1: Fraction(1)})
    cfg = PopulationDeConfig(q=2, m=8, d_cap=4, rho=rho, population_size=100, max_iters=2)
    states = population_de_run(cfg, np.random.default_rng(1))
    assert states[0].dims.min() == 4
    assert not states[1].dims.any()
    assert not states[2].dims.any()


def test_population_tracks_scalar_at_k3():
    rho = rho_star(3, 6).dist
    scalar = scalar_de_run(ScalarDeConfig(k=3, rho=rho, max_iters=6)).alphas_float()
    cfg = PopulationDeConfig(q=2, m=36, d_cap=12, rho=rho, population_size=1000, max_iters=4)
    states = population_de_run(cfg, np.random.default_rng(2))
    for t in range(5):
        frac_hi = population_summary(states[t], 12)["frac_ge_half"]
        assert abs(frac_hi - scalar[t]) <= 0.05


def test_population_interior_shrinks_with_m():
    # at fixed t the mass away from {0, D} thins as the ambient dim doubles
    rho = rho_star(3, 6).dist
    interiors = []
    for m in (24, 48):
        cfg = PopulationDeConfig(q=2, m=m, d_cap=8, rho=rho, population_size=600, max_iters=2)
        states = population_de_run(cfg, np.random.default_rng(3))
        interiors.append(population_summary(states[2], 8)["frac_interior"])
    assert interiors[1] < interiors[0]


def per_member_population_de_run(config, rng):
    """The one-member-at-a-time population loop: per member, n-1 picks, one
    rejection-sampled basis per nonzero pick, two ranks of the stacked bases."""
    degrees = [d for d, _ in config.rho.coeffs]
    probs = np.array([float(p) for _, p in config.rho.coeffs])
    probs = probs / probs.sum()
    size = config.population_size
    dims = np.full(size, config.d_cap, dtype=np.int64)
    out = [dims.copy()]
    for _ in range(config.max_iters):
        if dims.any():
            new_dims = np.zeros(size, dtype=np.int64)
            ns = rng.choice(degrees, size=size, p=probs)
            for idx in range(size):
                n = int(ns[idx])
                if n <= 1:
                    continue
                picks = [int(d) for d in dims[rng.integers(0, size, size=n - 1)] if d > 0]
                if not picks:
                    continue
                stack = np.concatenate([random_subspace_basis(config.m, d, config.q, rng) for d in picks])
                # V = span of the first d_cap coordinates
                new_dims[idx] = rank_mod(stack, config.q) - rank_mod(stack[:, config.d_cap :], config.q)
            dims = new_dims
        out.append(dims.copy())
    return out


def _assert_matches_per_member_loop(cfg, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    states = population_de_run(cfg, fast)
    want = per_member_population_de_run(cfg, slow)
    assert [st.t for st in states] == list(range(cfg.max_iters + 1))
    for st, dims in zip(states, want, strict=True):
        assert st.dims.dtype == np.int64 and st.dims.tolist() == dims.tolist()
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("m, d_cap", [(3, 2), (8, 4), (8, 8), (36, 12)])
def test_population_matches_per_member_loop(q, m, d_cap):
    # 101 members: three chunks of 32 and a partial one; at m = 3 about a
    # third of the q = 2 candidates are rank deficient
    cfg = PopulationDeConfig(q=q, m=m, d_cap=d_cap, rho=rho_star(3, 6).dist, population_size=101, max_iters=3)
    _assert_matches_per_member_loop(cfg, 30 + q)


@pytest.mark.parametrize(
    "m, d_cap, rho",
    [(8, 0, rho_star(3, 6).dist), (8, 4, EdgeDegreeDistribution({1: Fraction(1)})), (6, 3, rho_star(2, 5).dist)],
)
def test_population_matches_per_member_loop_edge_cases(m, d_cap, rho):
    cfg = PopulationDeConfig(q=2, m=m, d_cap=d_cap, rho=rho, population_size=100, max_iters=3)
    _assert_matches_per_member_loop(cfg, 40)


@pytest.mark.parametrize("q", [2, 3])
def test_population_matches_per_member_loop_with_rollbacks(q, monkeypatch):
    # sized as if no candidate were rejected, each window holds a whole chunk
    # of 7 members (up to 35 candidates), so at m = 3 most windows end in a
    # rollback; 100 members leave a partial last chunk
    monkeypatch.setattr(de, "full_rank_probability", lambda rows, cols, q: 1.0)
    monkeypatch.setattr(de, "_CHUNK", 7)
    cfg = PopulationDeConfig(q=q, m=3, d_cap=2, rho=rho_star(3, 6).dist, population_size=100, max_iters=4)
    _assert_matches_per_member_loop(cfg, 50)


def test_population_config_validation():
    rho = rho_star(3, 6).dist
    with pytest.raises(ValueError):
        PopulationDeConfig(q=2, m=4, d_cap=5, rho=rho)
    with pytest.raises(ValueError):
        PopulationDeConfig(q=2, m=8, d_cap=4, rho=rho, population_size=10)


# ---------------------------------------------------------------------------
# deviation bounds
# ---------------------------------------------------------------------------


def test_deviation_floor_always_holds():
    rng = np.random.default_rng(4)
    for m, d1, d2 in ((6, 3, 4), (8, 4, 4), (10, 7, 6), (5, 5, 2)):
        rep = deviation_bound_check(m, d1, d2, 0, 200, 2, rng)
        assert rep.floor_violations == 0
        assert rep.passed


def test_deviation_slack_zero_bound_trivial():
    # with the exact-expectation Markov bound, slack 0 is never binding
    for m in range(1, 12):
        for d1 in range(m + 1):
            for d2 in range(m + 1):
                assert intersection_excess_bound(d1, d2, 0, m, 2) == 1.0


def test_deviation_examples():
    rng = np.random.default_rng(5)
    rep = deviation_bound_check(8, 4, 4, 1, 400, 2, rng)
    assert rep.passed
    rep = deviation_bound_check(20, 4, 4, 2, 400, 2, rng)
    assert rep.passed
    assert rep.excess_freq <= rep.bound + rep.margin
    assert rep.bound < 1e-3


def test_deviation_intersection_sampler_is_correct():
    # cross-check the fast column-trick sampler against explicit subspace ops
    rng = np.random.default_rng(6)
    for m, d1, d2 in ((6, 2, 3), (5, 4, 2), (7, 3, 3)):
        v1 = Subspace.from_rows(np.eye(m, dtype=np.int64)[:d1], 2)
        dims_fast = sample_intersection_dims(m, d1, d2, 2, 60, np.random.default_rng(9))
        dims_slow = []
        rng2 = np.random.default_rng(9)
        for _ in range(60):
            b2 = random_subspace_basis(m, d2, 2, rng2)
            v2 = Subspace.from_rows(b2, 2)
            dims_slow.append(subspace_intersection(v1, v2).dim)
        assert list(dims_fast) == dims_slow


def _per_trial_intersection_dims(m, d1, d2, q, trials, rng):
    # one rejection-sampled basis per trial, ranked outside V1's coordinates
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        if d2 == 0:
            out[i] = 0
            continue
        b2 = random_subspace_basis(m, d2, q, rng)
        out[i] = d2 - rank_mod(b2[:, d1:], q) if d1 < m else d2
    return out


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("block_entries", [None, 40])
def test_sample_intersection_dims_matches_per_trial_loop(q, block_entries, monkeypatch):
    # blocks of 40 entries hold at most a few candidates, so every cell with
    # d2 > 0 takes many blocks
    if block_entries is not None:
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block_entries)
    fast, slow = np.random.default_rng(21), np.random.default_rng(21)
    m = 6
    for d1 in (0, 2, m):
        for d2, trials in ((0, 9), (1, 30), (4, 30), (m, 30), (3, 1)):
            got = sample_intersection_dims(m, d1, d2, q, trials, fast)
            want = _per_trial_intersection_dims(m, d1, d2, q, trials, slow)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert fast.bit_generator.state == slow.bit_generator.state


def _meet_law(m, a, b, q):
    """Exact law of dim(V1 ∩ V2) for a fixed a-dim V1 and a uniform b-dim V2
    in F_q^m: j -> q^((a-j)(b-j)) [a, j]_q [m-a, b-j]_q / [m, b]_q."""
    return {
        j: Fraction(
            q ** ((a - j) * (b - j)) * gaussian_binomial(a, j, q) * gaussian_binomial(m - a, b - j, q),
            gaussian_binomial(m, b, q),
        )
        for j in range(max(0, a + b - m), min(a, b) + 1)
    }


@pytest.mark.parametrize("m, a, b, q", [(6, 3, 3, 2), (8, 4, 5, 2), (7, 3, 4, 3), (5, 2, 3, 5), (4, 1, 2, 2)])
def test_sample_intersection_dims_follow_exact_meet_law(m, a, b, q):
    law = _meet_law(m, a, b, q)
    assert sum(law.values()) == 1
    trials = 20_000
    dims = sample_intersection_dims(m, a, b, q, trials, np.random.default_rng(60 + m))
    counts = np.bincount(dims, minlength=m + 1)
    assert counts.sum() == sum(counts[j] for j in law)
    # chi-square over the support, the rarest values pooled until each cell
    # expects at least 5 (the likeliest value alone does)
    observed, expected = [], []
    obs = exp = 0.0
    for j in sorted(law, key=lambda j: law[j]):
        obs, exp = obs + counts[j], exp + trials * float(law[j])
        if exp >= 5:
            observed.append(obs)
            expected.append(exp)
            obs = exp = 0.0
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2.sf(stat, max(len(observed) - 1, 1)) > 1e-3


def test_evaluate_deviation_flags_violations():
    dims = np.array([0, 0, 5, 0])
    rep = evaluate_deviation(8, 4, 4, 2, 2, dims)
    assert rep.excess_count == 1
    rep_floor = evaluate_deviation(4, 4, 4, 1, 2, np.array([3, 4]))
    assert rep_floor.floor_violations == 1
    assert not rep_floor.passed


def test_deviation_gate_is_the_exact_binomial_tail():
    # every excess count of the cell a normal-approximation margin failed
    # falsely (34 of 128 at bound 242/2186, tail 9.2e-7): a count passes
    # iff it is at most the bound or its Binomial(128, bound) upper tail is
    # above Phi(-5)
    m, d1, d2, slack, q, trials = 7, 5, 1, 1, 3, 128
    level = 0.5 * math.erfc(5 / math.sqrt(2))
    passing = []
    for k in range(trials + 1):
        dims = np.array([1] * k + [0] * (trials - k))
        rep = evaluate_deviation(m, d1, d2, slack, q, dims, z_margin=5.0)
        assert rep.bound == pytest.approx(242 / 2186)
        assert rep.passed == (k / trials <= rep.bound or binom.sf(k - 1, trials, rep.bound) > level)
        assert rep.passed == (rep.excess_freq <= rep.bound + rep.margin)
        passing.append(rep.passed)
    assert passing[34]
    assert passing.index(False) > 34 and not any(passing[passing.index(False):])


def test_deviation_grid_rejects_a_sampler_off_by_one_dimension():
    # the grid's gate still sees a sampler that draws V2 one dimension too
    # large: intersections too large too often, with no floor violation
    rng = np.random.default_rng(8)
    failures = 0
    for q in (2, 3):
        for m in range(1, 6):
            for d1 in range(m + 1):
                for d2 in range(m):
                    dims = sample_intersection_dims(m, d1, d2 + 1, q, 128, rng)
                    for slack in range(1, 5):
                        rep = evaluate_deviation(m, d1, d2, slack, q, dims, z_margin=5.0)
                        assert rep.floor_violations == 0
                        failures += not rep.passed
    assert failures >= 50


# ---------------------------------------------------------------------------
# prediction helpers and distances
# ---------------------------------------------------------------------------


def test_nontrivial_intersection_probability_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for d_cap, d1, d2 in ((6, 3, 3), (8, 2, 5), (5, 1, 1)):
        p = float(nontrivial_intersection_probability(d1, d2, d_cap, 2))
        hits = 0
        trials = 1500
        for _ in range(trials):
            a = Subspace.from_rows(random_subspace_basis(d_cap, d1, 2, rng), 2)
            b = Subspace.from_rows(random_subspace_basis(d_cap, d2, 2, rng), 2)
            hits += subspace_intersection(a, b).dim > 0
        sigma = math.sqrt(max(p * (1 - p), 1e-6) / trials)
        assert abs(hits / trials - p) < 5 * sigma + 1e-3


def test_row_undetermined_probability_edges():
    assert row_undetermined_probability(np.zeros(10, dtype=int), 12, 2) == 0.0
    assert row_undetermined_probability(np.full(10, 12), 12, 2) == 1.0
    mixed = row_undetermined_probability(np.array([0] * 50 + [12] * 50), 12, 2)
    assert abs(mixed - 0.25) < 1e-12


def test_tv_distance():
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.75, 1: 0.25}) == 0.25
