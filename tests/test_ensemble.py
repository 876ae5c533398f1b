"""Code ensemble: degree realization, configuration model, lifting, encoding."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from snclab.channel import validate_params
from snclab.degrees import NodeDegreeDistribution, edge_to_node, rho_star
from snclab.ensemble import (
    TannerGraph,
    build_code,
    check_satisfied,
    code_from_dict,
    code_to_dict,
    encode,
    exact_rate,
    lift,
    load_code,
    realize_degree_sequence,
    sample_tanner_graph,
    save_code,
)
from snclab.linalg import random_invertible, rank


def params_2_24():
    return validate_params(2, 24, Fraction(1, 2), Fraction(1, 3))


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------


def test_realize_concentrated():
    p = NodeDegreeDistribution({4: Fraction(1)})
    assert realize_degree_sequence(p, 10) == [4] * 5


def test_realize_sum_invariant_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        lo = int(rng.integers(2, 5))
        width = int(rng.integers(1, 4))
        degs = list(range(lo, lo + width + 1))
        raw = [Fraction(int(rng.integers(1, 9))) for _ in degs]
        total = sum(raw)
        p = NodeDegreeDistribution({d: r / total for d, r in zip(degs, raw)})
        n_v = int(rng.integers(lo, 40))
        seq = realize_degree_sequence(p, n_v)
        assert sum(seq) == 2 * n_v
        assert all(d in p.support for d in seq)


def test_realize_rho_star_3_6_fractions():
    p = edge_to_node(rho_star(3, 6).dist)
    seq = realize_degree_sequence(p, 24)
    assert sum(seq) == 48
    n_c = len(seq)
    for d in p.support:
        frac = Fraction(seq.count(d), n_c)
        assert abs(frac - p.mass(d)) <= Fraction(1, n_c)


def test_realize_infeasible():
    p = NodeDegreeDistribution({5: Fraction(1)})
    with pytest.raises(ValueError):
        realize_degree_sequence(p, 2)  # 4 stubs cannot host degree-5 checks


# ---------------------------------------------------------------------------
# configuration model
# ---------------------------------------------------------------------------


def test_tanner_unique_tiny_graph():
    rng = np.random.default_rng(0)
    g = sample_tanner_graph([1, 1], 1, rng)
    assert g.n_v == 1 and g.n_c == 2
    assert sorted(c for _, c, _ in g.edges) == [0, 1]


def test_tanner_degree_histogram_preserved():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n_v = int(rng.integers(4, 20))
        seq = realize_degree_sequence(edge_to_node(rho_star(3, 6).dist), n_v)
        g = sample_tanner_graph(seq, n_v, rng)
        per_check = [0] * g.n_c
        for _, c, _ in g.edges:
            per_check[c] += 1
        assert sorted(per_check) == sorted(seq)
        # TYPE invariants are enforced by the constructor; re-run them
        TannerGraph(n_v=g.n_v, check_degrees=g.check_degrees, edges=g.edges)


def test_tanner_conditioned_uniform_tiny_case():
    # three degree-2 checks, three variables: admissible graphs assign the
    # three distinct check pairs to the variables, 6 equally likely ways
    rng = np.random.default_rng(2)
    counts = {}
    for _ in range(10_000):
        g = sample_tanner_graph([2, 2, 2], 3, rng)
        pairs = [[] for _ in range(3)]
        for v, c, _ in g.edges:
            pairs[v].append(c)
        key = tuple(tuple(sorted(p)) for p in pairs)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    vals = np.array(list(counts.values()), dtype=float)
    expected = vals.sum() / 6
    stat = ((vals - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(0.99, df=5)


def test_tanner_unsatisfiable():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        sample_tanner_graph([2], 1, rng)  # single check forces a double edge


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lift_labels_invertible_and_seeded():
    p = params_2_24()
    rng = np.random.default_rng(4)
    seq = realize_degree_sequence(edge_to_node(rho_star(3, 6).dist), p.l - p.s)
    g = sample_tanner_graph(seq, p.l - p.s, rng)
    code = lift(g, p, np.random.default_rng(5))
    for h in code.labels:
        assert rank(h, p.q) == p.m
    again = lift(g, p, np.random.default_rng(5))
    assert all(np.array_equal(a, b) for a, b in zip(code.labels, again.labels))


def test_lift_labels_match_per_edge_loop():
    for q, N in ((2, 24), (3, 24), (2, 72)):
        p = validate_params(q, N, Fraction(1, 2), Fraction(1, 3))
        n_v = p.l - p.s
        seq = realize_degree_sequence(edge_to_node(rho_star(3, 6).dist), n_v)
        g = sample_tanner_graph(seq, n_v, np.random.default_rng(8))
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        code = lift(g, p, fast)
        want = [random_invertible(p.m, q, slow) for _ in range(g.n_e)]
        assert len(code.labels) == g.n_e
        assert all(np.array_equal(a, b) for a, b in zip(code.labels, want))
        assert fast.bit_generator.state == slow.bit_generator.state


def test_lift_m1_labels_are_unit():
    p = validate_params(2, 4, Fraction(3, 4), Fraction(1, 3))
    assert p.m == 1 and p.l == 3 and p.s == 1
    rng = np.random.default_rng(6)
    g = sample_tanner_graph([2, 2], 2, rng)
    code = lift(g, p, rng)
    for h in code.labels:
        assert np.array_equal(h, np.array([[1]]))


def test_lift_size_mismatch():
    p = params_2_24()
    rng = np.random.default_rng(7)
    g = sample_tanner_graph([2, 2], 2, rng)
    with pytest.raises(ValueError, match="variables"):
        lift(g, p, rng)


def test_build_code_deterministic():
    p = params_2_24()
    c1 = build_code(p, 3, 6, np.random.default_rng(8))
    c2 = build_code(p, 3, 6, np.random.default_rng(8))
    assert c1.graph.edges == c2.graph.edges
    assert all(np.array_equal(a, b) for a, b in zip(c1.labels, c2.labels))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_zero_info_gives_zero_codeword():
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(9))
    x = encode(code, np.zeros(code.info_length(), dtype=np.int64))
    assert not x.any()
    assert check_satisfied(code, x)


def test_encode_random_info_satisfies_checks():
    p = params_2_24()
    rng = np.random.default_rng(10)
    code = build_code(p, 3, 6, rng)
    for _ in range(100):
        info = rng.integers(0, p.q, size=code.info_length(), dtype=np.int64)
        x = encode(code, info)
        assert check_satisfied(code, x)
        assert not x[code.n_v :].any()


def test_encode_is_injective_on_samples():
    p = params_2_24()
    rng = np.random.default_rng(11)
    code = build_code(p, 3, 6, rng)
    seen = set()
    for _ in range(50):
        info = rng.integers(0, p.q, size=code.info_length(), dtype=np.int64)
        seen.add(encode(code, info).tobytes())
    # distinct info vectors map to distinct codewords w.h.p.; collisions would
    # indicate the info positions are not free coordinates
    assert len(seen) >= 49


def test_encode_wrong_length():
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(12))
    with pytest.raises(ValueError):
        encode(code, np.zeros(code.info_length() + 1, dtype=np.int64))


def test_free_coordinates_at_least_design_rate():
    rng = np.random.default_rng(13)
    for trial in range(20):
        p = params_2_24()
        code = build_code(p, 3, 6, rng)
        assert code.info_length() >= code.design_rate * p.N * p.l
        assert exact_rate(code) >= code.design_rate


def test_exact_rate_identity():
    # rate = (1-lambda)(1-omega) - rank/(N*l); with no effective constraints
    # (rank 0) it degenerates to the unconstrained (1-lambda)(1-omega)
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(14))
    _, rank_sys, _ = code.system_rref()
    unconstrained = (1 - p.lam) * (1 - p.omega)
    assert exact_rate(code) == unconstrained - Fraction(rank_sys, p.N * p.l)


def test_check_satisfied_detects_flip():
    p = params_2_24()
    rng = np.random.default_rng(15)
    code = build_code(p, 3, 6, rng)
    flips_detected = 0
    trials = 20
    for _ in range(trials):
        info = rng.integers(0, p.q, size=code.info_length(), dtype=np.int64)
        x = encode(code, info).copy()
        v = int(rng.integers(0, code.n_v))
        c = int(rng.integers(0, p.m))
        x[v, c] = (x[v, c] + 1) % p.q
        if not check_satisfied(code, x):
            flips_detected += 1
    assert flips_detected == trials


def test_check_satisfied_rejects_nonzero_padding():
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(16))
    x = encode(code, np.zeros(code.info_length(), dtype=np.int64)).copy()
    x[p.l - 1, 0] = 1
    assert not check_satisfied(code, x)


def test_degenerate_two_variable_code_rate():
    # m=1: labels are all [[1]], two variables sharing two degree-2 checks
    # yield the single equation x1 + x2 = 0 twice; rank 1, rate (2-1)/(N*l)
    p = validate_params(2, 4, Fraction(3, 4), Fraction(1, 3))
    rng = np.random.default_rng(17)
    g = sample_tanner_graph([2, 2], 2, rng)
    code = lift(g, p, rng)
    assert exact_rate(code) == Fraction(2 - 1, p.N * p.l)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_code_round_trip_dict():
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(18))
    clone = code_from_dict(code_to_dict(code, master_seed=7))
    assert clone.graph.edges == code.graph.edges
    assert clone.graph.check_degrees == code.graph.check_degrees
    assert all(np.array_equal(a, b) for a, b in zip(clone.labels, code.labels))
    assert clone.params == code.params
    assert clone.design_rate == code.design_rate


def test_code_round_trip_file(tmp_path):
    p = params_2_24()
    code = build_code(p, 3, 6, np.random.default_rng(19))
    path = tmp_path / "code.json"
    save_code(code, path, master_seed=42)
    clone = load_code(path)
    info = np.arange(code.info_length(), dtype=np.int64) % p.q
    assert np.array_equal(encode(code, info), encode(clone, info))
