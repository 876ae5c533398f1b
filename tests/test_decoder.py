"""Decoder: noise-space recovery, message passing, decision, scoring."""

from fractions import Fraction

import numpy as np
import pytest

from snclab.channel import transmit, validate_params
from snclab.decoder import (
    DecoderConfig,
    EmptyIntersectionFault,
    MessageState,
    decide,
    decode,
    init_messages,
    iterate,
    recover_noise_space,
    span_failure_probability,
    symbol_error_rate,
    wrong_determinations,
)
from snclab.ensemble import TannerGraph, build_code, encode, lift
from snclab.linalg import AffineSubspace, Subspace, random_rank_matrix, row_space


def params_n24():
    return validate_params(2, 24, Fraction(1, 2), Fraction(1, 3))


def make_trial(seed, N=24, k=3, b=6, q=2):
    p = validate_params(q, N, Fraction(1, 2), Fraction(1, 3))
    rng = np.random.default_rng([seed])
    code = build_code(p, k, b, rng)
    info = rng.integers(0, q, size=code.info_length(), dtype=np.int64)
    x = encode(code, info)
    out = transmit(x, p, rng)
    return p, code, x, out


# ---------------------------------------------------------------------------
# noise-space recovery
# ---------------------------------------------------------------------------


def test_recover_noiseless_always_succeeds():
    p = validate_params(2, 24, Fraction(1, 2), Fraction(0))
    y = np.zeros((p.l, p.m), dtype=np.int64)
    w = recover_noise_space(y, p, p.omega)
    assert w.dim == 0 == p.s
    # omega' must lie in [omega, 1): no rows would be left to constrain
    with pytest.raises(ValueError, match="omega'"):
        recover_noise_space(y, p, 1)


def test_recovered_space_contained_in_truth():
    p = params_n24()
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = random_rank_matrix(p.l, p.m, p.s, p.q, rng)
        w_true = row_space(z, p.q)
        w_hat = recover_noise_space(z, p, p.omega)
        # recovered rows are rows of z, so the span can only be smaller
        assert w_hat.dim <= w_true.dim
        for v in w_hat.basis:
            assert w_true.contains(v)


def test_recovery_success_rate_matches_product_formula():
    p = params_n24()  # s = 4
    rng = np.random.default_rng(2)
    trials = 2000
    hits = 0
    for _ in range(trials):
        z = random_rank_matrix(p.l, p.m, p.s, p.q, rng)
        if recover_noise_space(z, p, p.omega).dim == p.s:
            hits += 1
    expected = 1 - float(span_failure_probability(p.s, p.s, p.q))
    assert expected > 0.28
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(hits / trials - expected) < 4 * sigma


def test_span_failure_probability_values():
    assert span_failure_probability(0, 0, 2) == 0
    assert span_failure_probability(1, 1, 2) == Fraction(1, 2)
    assert span_failure_probability(2, 3, 2) == 1 - Fraction(3, 4) * Fraction(7, 8)
    assert span_failure_probability(3, 2, 2) == 1


# ---------------------------------------------------------------------------
# message passing on handcrafted graphs
# ---------------------------------------------------------------------------


def tiny_code(labels_identity=True):
    # two variables, checks [2, 2]: var0 and var1 both touch check0 and check1
    p = validate_params(2, 6, Fraction(1, 2), Fraction(1, 3))
    assert (p.l, p.m, p.s) == (3, 3, 1)
    graph = TannerGraph(
        n_v=2,
        check_degrees=(2, 2),
        edges=((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)),
    )
    rng = np.random.default_rng(3)
    code = lift(graph, p, rng)
    if labels_identity:
        eye = np.eye(p.m, dtype=np.int64)
        code.labels = tuple(eye.copy() for _ in code.labels)
        code._inverses = None
    return p, code


def test_init_messages_anchor_values():
    p, code = tiny_code()
    w = Subspace.from_rows([[1, 0, 0]], p.q)
    y = np.array([[0, 1, 0], [1, 1, 1], [1, 0, 0]], dtype=np.int64)
    state = init_messages(y, w, code)
    assert state.t == 0
    for e, (v, c, _) in enumerate(code.graph.edges):
        msg = state.messages[e]
        assert msg.dim == w.dim
        assert msg.contains(y[v])


def test_init_with_zero_space_gives_points():
    p, code = tiny_code()
    w = Subspace.zero(p.m, p.q)
    y = np.zeros((p.l, p.m), dtype=np.int64)
    state = init_messages(y, w, code)
    assert all(m.is_point() for m in state.messages)
    # zero noise space makes the state a fixed point of the update
    state2 = iterate(state, code)
    assert all(a == b for a, b in zip(state.messages, state2.messages))


def test_iterate_two_variable_identity_labels_fixed_point():
    # identity labels, y = 0, W = span{e1}: the leave-one-out sum keeps
    # span{e1}, so the all-(y_i+W) state is a fixed point with dims 1
    p, code = tiny_code(labels_identity=True)
    w = Subspace.from_rows([[1, 0, 0]], p.q)
    y = np.zeros((p.l, p.m), dtype=np.int64)
    state = init_messages(y, w, code)
    nxt = iterate(state, code)
    assert nxt.t == 1
    for msg in nxt.messages:
        assert msg.direction == w


def test_iterate_faults_on_inconsistent_input():
    # y whose cosets cannot satisfy the check equation: x0 = x1 must lie in
    # both W and e2 + W, which is empty, so the update must raise
    p, code = tiny_code(labels_identity=True)
    w = Subspace.from_rows([[1, 0, 0]], p.q)
    y = np.zeros((p.l, p.m), dtype=np.int64)
    y[1] = np.array([0, 1, 0])
    state = init_messages(y, w, code)
    with pytest.raises(EmptyIntersectionFault):
        iterate(state, code)


def test_identical_parallel_checks_leave_genuine_ambiguity():
    # with identity labels both checks carry the same equation x0 + x1 = 0,
    # and two consistent codeword/noise splits exist; the decoder must stay
    # undetermined rather than guess
    p, code = tiny_code(labels_identity=True)
    w = Subspace.from_rows([[1, 0, 0]], p.q)
    x = np.array([[0, 1, 1], [0, 1, 1], [0, 0, 0]], dtype=np.int64)
    y = x.copy()
    y[0] = (y[0] + np.array([1, 0, 0])) % p.q  # noise along e1
    state = init_messages(y, w, code)
    for _ in range(3):
        state = iterate(state, code)
    x_hat, determined = decide(state, code)
    assert not determined[:2].any()
    for e, (v, _, _) in enumerate(code.graph.edges):
        assert state.messages[e].contains(x[v])


def test_label_rotation_pins_rows_in_one_round():
    # one edge label rotates W off itself, so the check output intersects the
    # anchor in a single point for both variables
    p, code = tiny_code(labels_identity=True)
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    eye = np.eye(3, dtype=np.int64)
    code.labels = (eye.copy(), eye.copy(), perm, eye.copy())
    code._inverses = None
    w = Subspace.from_rows([[1, 0, 0]], p.q)
    y = np.array([[1, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=np.int64)  # x = 0
    state = init_messages(y, w, code)
    nxt = iterate(state, code)
    x_hat, determined = decide(nxt, code)
    assert determined.all()
    assert not x_hat.any()


def degree_one_trial():
    """var0 has edges to check0 (degree 1) and check1; var1 to check1 and
    check2 (degree 1).  The only codeword with a degree-1 check on each
    variable is x = 0, so y is the noise."""
    p = validate_params(2, 6, Fraction(1, 2), Fraction(1, 3))
    graph = TannerGraph(
        n_v=2,
        check_degrees=(1, 2, 1),
        edges=((0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 0)),
    )
    code = lift(graph, p, np.random.default_rng(4))
    w = Subspace.from_rows([[1, 1, 0]], p.q)
    y = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 0]], dtype=np.int64)
    return code, y, w


def test_degree_one_check_pins_immediately():
    code, y, w = degree_one_trial()
    state = init_messages(y, w, code)
    nxt = iterate(state, code)
    x_hat, determined = decide(nxt, code)
    assert determined.all()
    assert not x_hat.any()


# ---------------------------------------------------------------------------
# check node against the plain prefix/suffix loop
# ---------------------------------------------------------------------------


def reference_iterate(state, code):
    """One flooding round with every leave-one-out sum built as
    prefix[pos] + suffix[pos + 1] from the zero point up: 3d adds per check."""
    q, m = code.params.q, code.params.m
    graph = code.graph
    inverses = code.label_inverses()
    zero_point = AffineSubspace.point(np.zeros(m, dtype=np.int64), q)
    imaged = [state.messages[e].image(code.labels[e]) for e in range(graph.n_e)]
    check_out = [None] * graph.n_e
    for edges_of_c in graph.check_edges():
        prefix = [zero_point]
        for e in edges_of_c:
            prefix.append(prefix[-1].add(imaged[e]))
        suffix = [zero_point]
        for e in reversed(edges_of_c):
            suffix.append(suffix[-1].add(imaged[e]))
        suffix.reverse()
        for pos, e in enumerate(edges_of_c):
            check_out[e] = prefix[pos].add(suffix[pos + 1]).negate().image(inverses[e])
    new_messages = [None] * graph.n_e
    for v, (e1, e2) in enumerate(graph.var_edges()):
        anchor = state.anchors[v]
        new_messages[e1] = anchor.intersect(check_out[e2])
        new_messages[e2] = anchor.intersect(check_out[e1])
    return MessageState(messages=tuple(new_messages), anchors=state.anchors, t=state.t + 1)


def recovered_trial(q, N, k, b):
    """The first seed's code and received word whose noise space is recovered."""
    for seed in range(100):
        p, code, x, out = make_trial(seed, N=N, k=k, b=b, q=q)
        w = recover_noise_space(out.y, p, code.omega_prime)
        if w.dim == p.s:
            return code, out.y, w
    raise AssertionError("no trial recovered its noise space")


CHECK_NODE_CASES = {
    "q2 rho*(3,6) N72": lambda: recovered_trial(2, 72, 3, 6),
    "q3 rho*(3,6) N72": lambda: recovered_trial(3, 72, 3, 6),
    "q2 rho*(2,5) N24": lambda: recovered_trial(2, 24, 2, 5),
    "degree-one checks": degree_one_trial,
}


@pytest.mark.parametrize("case", sorted(CHECK_NODE_CASES))
def test_check_node_matches_prefix_suffix_loop(case, monkeypatch):
    code, y, w = CHECK_NODE_CASES[case]()
    degrees = [len(edges) for edges in code.graph.check_edges()]
    if case == "q2 rho*(2,5) N24":
        assert 2 in degrees
    adds = []
    add = AffineSubspace.add
    monkeypatch.setattr(AffineSubspace, "add", lambda a, b: adds.append(1) or add(a, b))
    state = init_messages(y, w, code)
    for _ in range(3):
        want = reference_iterate(state, code)
        adds.clear()
        state = iterate(state, code)
        assert len(adds) == sum(max(0, 3 * d - 6) for d in degrees)
        assert state.t == want.t
        assert state.messages == want.messages
        if decide(state, code)[1].all():
            break


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_decode_noiseless_exact_at_t0():
    p = validate_params(2, 24, Fraction(1, 2), Fraction(0))
    rng = np.random.default_rng(5)
    code = build_code(p, 3, 6, rng)
    info = rng.integers(0, p.q, size=code.info_length(), dtype=np.int64)
    x = encode(code, info)
    out = transmit(x, p, rng)
    res = decode(out.y, code)
    assert res.noise_space_ok
    assert res.iterations_used == 0
    assert res.all_determined
    assert np.array_equal(res.x_hat, x)
    assert symbol_error_rate(res, x) == 0.0


def test_decode_never_wrong_and_truth_contained():
    # containment: x_i in W(t)_{i->a} at every logged iteration; no wrong rows
    n_checked = 0
    for seed in range(40):
        p, code, x, out = make_trial(seed)
        w = recover_noise_space(out.y, p, code.omega_prime)
        if w.dim != p.s:
            continue
        n_checked += 1
        state = init_messages(out.y, w, code)
        for _ in range(6):
            for e, (v, _, _) in enumerate(code.graph.edges):
                assert state.messages[e].contains(x[v])
            state = iterate(state, code)
        res = decode(out.y, code, DecoderConfig(max_iters=20))
        assert wrong_determinations(res, x) == 0
        for st in res.stats:
            assert st["max_dim"] <= p.s
    assert n_checked >= 5


def test_decode_determinism():
    p, code, x, out = make_trial(11)
    r1 = decode(out.y, code, DecoderConfig(max_iters=20))
    r2 = decode(out.y, code, DecoderConfig(max_iters=20))
    assert np.array_equal(r1.x_hat, r2.x_hat)
    assert np.array_equal(r1.determined, r2.determined)
    assert r1.iterations_used == r2.iterations_used
    assert r1.stats == r2.stats


def test_decode_symmetry_zero_vs_random_codeword():
    # same code, same noise stream: the trajectory of the random-codeword
    # decode is the zero-codeword trajectory translated by the codeword
    for seed in range(12):
        p = validate_params(2, 24, Fraction(1, 2), Fraction(1, 3))
        rng_code = np.random.default_rng([seed, 0])
        code = build_code(p, 3, 6, rng_code)
        info = np.random.default_rng([seed, 1]).integers(0, p.q, size=code.info_length(), dtype=np.int64)
        x = encode(code, info)
        zero = np.zeros_like(x)
        out_x = transmit(x, p, np.random.default_rng([seed, 2]))
        out_0 = transmit(zero, p, np.random.default_rng([seed, 2]))
        rx = decode(out_x.y, code, DecoderConfig(max_iters=20))
        r0 = decode(out_0.y, code, DecoderConfig(max_iters=20))
        assert rx.iterations_used == r0.iterations_used
        assert np.array_equal(rx.determined, r0.determined)
        assert rx.stats == r0.stats
        assert symbol_error_rate(rx, x) == symbol_error_rate(r0, zero)


def test_decode_span_deficient_aborts_by_default():
    found = False
    for seed in range(40):
        p, code, x, out = make_trial(seed)
        w = recover_noise_space(out.y, p, code.omega_prime)
        if w.dim == p.s:
            continue
        found = True
        res = decode(out.y, code, DecoderConfig(max_iters=20))
        assert not res.noise_space_ok
        assert res.iterations_used == 0
        assert not res.determined[: code.n_v].any()
        assert symbol_error_rate(res, x) == 1.0
        break
    assert found


def test_decode_larger_omega_prime_recovers_more_often():
    p = validate_params(2, 24, Fraction(1, 2), Fraction(1, 4))  # l=12, s=3
    hits = {Fraction(1, 4): 0, Fraction(1, 2): 0}
    trials = 300
    for w_prime in hits:
        rng = np.random.default_rng(77)
        for _ in range(trials):
            z = random_rank_matrix(p.l, p.m, p.s, p.q, rng)
            if recover_noise_space(z, p, w_prime).dim == p.s:
                hits[w_prime] += 1
    assert hits[Fraction(1, 2)] > hits[Fraction(1, 4)]
    expect_half = 1 - float(span_failure_probability(p.s, p.l // 2, p.q))
    assert abs(hits[Fraction(1, 2)] / trials - expect_half) < 0.1


def test_decode_with_extra_zero_padding_end_to_end():
    # omega' = 1/2 > omega = 1/4: six recovery rows for a rank-3 noise space,
    # so recovery nearly always succeeds and the code has fewer free rows
    p = validate_params(2, 24, Fraction(1, 2), Fraction(1, 4))
    w_prime = Fraction(1, 2)
    recovered = full = 0
    for i in range(40):
        rng = np.random.default_rng([33, i])
        code = build_code(p, 3, 6, rng, omega_prime=w_prime)
        assert code.n_zero_rows == 6 and code.n_v == 6
        info = rng.integers(0, p.q, size=code.info_length(), dtype=np.int64)
        x = encode(code, info)
        assert not x[code.n_v :].any()
        out = transmit(x, p, rng)
        res = decode(out.y, code, DecoderConfig(max_iters=20))
        assert wrong_determinations(res, x) == 0
        if res.noise_space_ok:
            recovered += 1
            full += res.all_determined
    expect = 1 - float(span_failure_probability(p.s, 6, p.q))
    assert recovered >= int(0.7 * expect * 40)
    assert full == recovered


def test_symbol_error_rate_all_undetermined():
    p, code, x, out = make_trial(1)
    res = decode(out.y, code, DecoderConfig(max_iters=20))
    if res.noise_space_ok:
        assert symbol_error_rate(res, x) == res.undetermined_fraction()
    else:
        assert symbol_error_rate(res, x) == 1.0
