"""Finite-field core: canonical forms, solving, sampling, counting."""

import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from snclab import kernels, linalg
from snclab.kernels import matmul_mod
from snclab.linalg import (
    AffineSubspace,
    FieldSpec,
    Subspace,
    affine_image,
    affine_intersection,
    affine_sum,
    dump_matrix_text,
    gaussian_binomial,
    load_matrix_text,
    preimage,
    random_full_rank,
    random_full_rank_stack,
    random_invertible,
    random_rank_matrix,
    rank,
    row_space,
    rref,
    solve,
    subspace_intersection,
    subspace_sum,
)


def chi_square_uniform(counts, significance=0.01):
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / len(counts)
    stat = ((counts - expected) ** 2 / expected).sum()
    return stat < chi2.ppf(1 - significance, df=len(counts) - 1)


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------


def test_field_spec_accepts_primes():
    for q in (2, 3, 5, 65521):
        assert FieldSpec(q).q == q


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 65536 + 1, 65536])
def test_field_spec_rejects_non_primes(q):
    with pytest.raises((ValueError, TypeError)):
        FieldSpec(q)


# ---------------------------------------------------------------------------
# rref / solve
# ---------------------------------------------------------------------------


def test_rref_identity_q2():
    r = rref(np.eye(2, dtype=np.int64), 2)
    assert np.array_equal(r.matrix, np.eye(2, dtype=np.int64))
    assert r.rank == 2
    assert r.pivot_cols == (0, 1)


def test_rref_equal_rows_q2():
    r = rref(np.array([[1, 1], [1, 1]]), 2)
    assert r.rank == 1
    assert r.pivot_cols == (0,)


def test_rref_q3_dependent_rows():
    # second row is 2 * first row mod 3
    r = rref(np.array([[2, 1], [1, 2]]), 3)
    assert r.rank == 1


def test_solve_identity():
    b = np.array([3, 1, 4], dtype=np.int64)
    sol = solve(np.eye(3, dtype=np.int64), b, 5)
    assert np.array_equal(sol.particular, b)
    assert sol.nullspace.dim == 0


def test_solve_zero_matrix():
    sol = solve(np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64), 2)
    assert np.array_equal(sol.particular, np.zeros(3, dtype=np.int64))
    assert sol.nullspace.dim == 3


def test_solve_underdetermined_q2():
    sol = solve(np.array([[1, 1]]), np.array([1]), 2)
    assert np.array_equal(sol.particular, np.array([1, 0]))
    assert sol.nullspace == Subspace.from_rows([[1, 1]], 2)
    # oracle: enumerate all four vectors
    solutions = [v for v in itertools.product(range(2), repeat=2) if (v[0] + v[1]) % 2 == 1]
    got = {tuple((sol.particular + np.array(w) @ sol.nullspace.basis) % 2) for w in [(0,), (1,)]}
    assert got == set(solutions)


def test_solve_inconsistent():
    a = np.array([[1, 1], [1, 1]])
    assert solve(a, np.array([1, 0]), 2) is None


def test_solve_random_systems_check_by_substitution():
    rng = np.random.default_rng(123)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        rows, cols = rng.integers(1, 6, size=2)
        a = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
        b = rng.integers(0, q, size=rows, dtype=np.int64)
        sol = solve(a, b, q)
        if sol is None:
            # confirmed by rank test
            aug = np.hstack([a, b.reshape(-1, 1)])
            assert rank(aug, q) == rank(a, q) + 1
        else:
            assert np.array_equal((a @ sol.particular) % q, b)
            for v in sol.nullspace.basis:
                assert not ((a @ v) % q).any()
            assert sol.nullspace.dim == cols - rank(a, q)
            assert sol.nullspace == Subspace.from_rows(sol.nullspace.basis, q, ambient=cols)
            free = np.setdiff1d(np.arange(cols), rref(a, q).pivot_cols)
            assert not sol.particular[free].any()


def test_solve_nullspace_is_canonical():
    # the basis e_f - sum_i R[i, f] e_(pivot i) read off the RREF of [1 1 1]
    # is (1 1 0), (1 0 1): both rows lead at column 0, so it is not RREF
    sol = solve(np.array([[1, 1, 1]]), np.array([1]), 2)
    assert np.array_equal(sol.particular, [1, 0, 0])
    assert np.array_equal(sol.nullspace.basis, [[1, 0, 1], [0, 1, 1]])


# ---------------------------------------------------------------------------
# random samplers
# ---------------------------------------------------------------------------


def test_random_invertible_m1_q2():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert np.array_equal(random_invertible(1, 2, rng), np.array([[1]]))


def test_random_invertible_lands_in_gl2():
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = random_invertible(2, 2, rng)
        assert rank(h, 2) == 2


def test_random_invertible_uniform_gl2_f2():
    # GL_2(F_2) has 6 elements; chi-square at significance 0.01
    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(6000):
        h = random_invertible(2, 2, rng)
        counts[h.tobytes()] = counts.get(h.tobytes(), 0) + 1
    assert len(counts) == 6
    assert chi_square_uniform(list(counts.values()))


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("block_entries", [None, 40])
def test_random_full_rank_stack_matches_loop(q, block_entries, monkeypatch):
    # blocks of 40 entries hold at most a few candidates (one at 36x36), so
    # most stacks take many blocks
    if block_entries is not None:
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block_entries)
    fast, slow = np.random.default_rng(31), np.random.default_rng(31)
    for rows, cols in ((4, 6), (6, 6), (6, 3), (36, 36), (0, 5)):
        for count in (0, 1, 7, 48):
            got = random_full_rank_stack(count, rows, cols, q, fast)
            want = [random_full_rank(rows, cols, q, slow) for _ in range(count)]
            assert got.shape == (count, rows, cols) and got.dtype == np.int64
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert fast.bit_generator.state == slow.bit_generator.state


def test_random_rank_matrix_zero_rank():
    rng = np.random.default_rng(3)
    z = random_rank_matrix(3, 4, 0, 2, rng)
    assert not z.any()


def test_random_rank_matrix_always_exact_rank():
    rng = np.random.default_rng(4)
    for _ in range(100):
        l, m = rng.integers(1, 6, size=2)
        s = int(rng.integers(0, min(l, m) + 1))
        q = int(rng.choice([2, 3]))
        z = random_rank_matrix(int(l), int(m), s, q, rng)
        assert rank(z, q) == s


def test_random_rank_matrix_rejects_bad_rank():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        random_rank_matrix(2, 2, 3, 2, rng)


@pytest.mark.parametrize("l,m,expected", [(2, 2, 9), (2, 3, 21)])
def test_random_rank_matrix_uniform_over_rank1(l, m, expected):
    rng = np.random.default_rng(99)
    counts = {}
    n = 1000 * expected
    for _ in range(n):
        z = random_rank_matrix(l, m, 1, 2, rng)
        counts[z.tobytes()] = counts.get(z.tobytes(), 0) + 1
    assert len(counts) == expected
    assert chi_square_uniform(list(counts.values()))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def test_row_space_zero_matrix():
    s = row_space(np.zeros((3, 4), dtype=np.int64), 2)
    assert s.dim == 0


def test_row_space_identity():
    s = row_space(np.eye(3, dtype=np.int64), 2)
    assert s == Subspace.full(3, 2)


def test_row_space_dependent_rows():
    s = row_space(np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1]]), 2)
    assert s.dim == 2


def test_subspace_canonical_under_regenerated_bases():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 7))
        d = int(rng.integers(0, m + 1))
        basis = random_rank_matrix(d, m, d, q, rng) if d else np.zeros((0, m), dtype=np.int64)
        u = Subspace.from_rows(basis, q, ambient=m)
        if d:
            g = random_invertible(d, q, rng)
            u2 = Subspace.from_rows((g @ basis) % q, q, ambient=m)
            assert u == u2
            assert hash(u) == hash(u2)


def test_subspace_sum_identity_and_idempotence():
    rng = np.random.default_rng(7)
    m, q = 5, 2
    u = row_space(rng.integers(0, q, size=(3, m), dtype=np.int64), q)
    zero = Subspace.zero(m, q)
    assert subspace_sum(u, zero) == u
    assert subspace_sum(u, u) == u


def test_subspace_sum_of_axes():
    e1 = Subspace.from_rows([[1, 0, 0]], 2)
    e2 = Subspace.from_rows([[0, 1, 0]], 2)
    assert subspace_sum(e1, e2).dim == 2


def test_subspace_intersection_examples():
    m, q = 3, 2
    full = Subspace.full(m, q)
    u = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], q)
    v = Subspace.from_rows([[0, 1, 0], [0, 0, 1]], q)
    e1 = Subspace.from_rows([[1, 0, 0]], q)
    e2 = Subspace.from_rows([[0, 1, 0]], q)
    assert subspace_intersection(u, full) == u
    assert subspace_intersection(e1, e2).dim == 0
    assert subspace_intersection(u, v) == Subspace.from_rows([[0, 1, 0]], q)


def test_dimension_formula_1000_random_pairs():
    rng = np.random.default_rng(8)
    q = 2
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        du = int(rng.integers(0, m + 1))
        dv = int(rng.integers(0, m + 1))
        u = row_space(rng.integers(0, q, size=(du, m), dtype=np.int64), q) if du else Subspace.zero(m, q)
        v = row_space(rng.integers(0, q, size=(dv, m), dtype=np.int64), q) if dv else Subspace.zero(m, q)
        s = subspace_sum(u, v)
        i = subspace_intersection(u, v)
        assert s.dim + i.dim == u.dim + v.dim


def test_subspace_ambient_mismatch():
    u = Subspace.full(2, 2)
    v = Subspace.full(3, 2)
    with pytest.raises(ValueError):
        subspace_sum(u, v)
    with pytest.raises(ValueError):
        subspace_intersection(u, v)


def test_intersection_membership_oracle_small():
    rng = np.random.default_rng(9)
    m = 4
    for q in (2, 3, 5):
        for _ in range(100):
            u = row_space(rng.integers(0, q, size=(rng.integers(0, 4), m), dtype=np.int64), q)
            v = row_space(rng.integers(0, q, size=(rng.integers(0, 4), m), dtype=np.int64), q)
            inter = subspace_intersection(u, v)
            got = {tuple(x) for x in inter.enumerate_vectors()}
            want = {tuple(x) for x in u.enumerate_vectors()} & {tuple(x) for x in v.enumerate_vectors()}
            assert got == want
            assert inter == Subspace.from_rows(inter.basis, q, ambient=m)


# ---------------------------------------------------------------------------
# affine subspaces
# ---------------------------------------------------------------------------


def _coset(a):
    return {tuple(v) for v in a.enumerate_vectors()}


def test_affine_image_identity_and_swap():
    q = 2
    a = AffineSubspace.from_offset([1, 0], Subspace.from_rows([[0, 1]], q))
    assert affine_image(a, np.eye(2, dtype=np.int64)) == a
    swap = np.array([[0, 1], [1, 0]])
    img = affine_image(a, swap)
    assert img == AffineSubspace.from_offset([0, 1], Subspace.from_rows([[1, 0]], q))


def test_affine_image_preserves_dim():
    rng = np.random.default_rng(10)
    q, m = 2, 5
    for _ in range(50):
        d = int(rng.integers(0, m + 1))
        a = AffineSubspace.from_offset(
            rng.integers(0, q, size=m, dtype=np.int64),
            row_space(rng.integers(0, q, size=(d, m), dtype=np.int64), q),
        )
        h = random_invertible(m, q, rng)
        assert affine_image(a, h).dim == a.dim


def test_affine_image_rejects_singular():
    a = AffineSubspace.from_offset([1, 0], Subspace.from_rows([[0, 1]], 2))
    with pytest.raises(ValueError):
        affine_image(a, np.array([[1, 1], [1, 1]]))


def test_affine_sum_examples():
    q = 2
    e1 = np.array([1, 0], dtype=np.int64)
    e2 = np.array([0, 1], dtype=np.int64)
    span_e2 = Subspace.from_rows([[0, 1]], q)
    a = AffineSubspace.from_offset(e1, span_e2)
    zero_pt = AffineSubspace.point([0, 0], q)
    assert affine_sum(a, zero_pt) == a
    b = AffineSubspace.from_offset(e2, span_e2)
    total = affine_sum(a, b)
    # {e1}+span{e2} + {e2}+span{e2} = {e1+e2}+span{e2} = {e1}+span{e2}
    assert total == a


def test_affine_sum_direction_dims():
    q = 3
    a = AffineSubspace.from_offset([0, 0, 0], Subspace.from_rows([[1, 0, 0]], q))
    b = AffineSubspace.from_offset([0, 0, 0], Subspace.from_rows([[0, 1, 0]], q))
    assert affine_sum(a, b).dim == 2


def test_affine_intersection_examples():
    q = 2
    line = Subspace.from_rows([[0, 1]], q)
    a = AffineSubspace.from_offset([1, 0], line)
    assert affine_intersection(a, a) == a
    # parallel distinct cosets of the same line
    b = AffineSubspace.from_offset([0, 0], line)
    assert affine_intersection(a, b) is None
    diag = AffineSubspace.from_offset([0, 0], Subspace.from_rows([[1, 1]], q))
    point = affine_intersection(a, diag)
    assert point.is_point()
    assert np.array_equal(point.offset, np.array([1, 1]))


def _check_intersection(a, b):
    """affine_intersection(a, b) against coset enumeration, and canonical."""
    inter = affine_intersection(a, b)
    want = _coset(a) & _coset(b)
    if inter is None:
        assert want == set()
        return None
    assert _coset(inter) == want
    recanonical = AffineSubspace.from_offset(
        inter.offset, Subspace.from_rows(inter.direction.basis, a.q, ambient=a.ambient)
    )
    assert inter == recanonical
    return inter


def test_affine_ops_against_coset_enumeration():
    rng = np.random.default_rng(11)
    for q, m, cases in ((2, 4, 200), (3, 3, 150), (5, 3, 100)):
        disjoint = 0
        for _ in range(cases):
            da = int(rng.integers(0, m))
            db = int(rng.integers(0, m))
            a = AffineSubspace.from_offset(
                rng.integers(0, q, size=m, dtype=np.int64),
                row_space(rng.integers(0, q, size=(da, m), dtype=np.int64), q),
            )
            b = AffineSubspace.from_offset(
                rng.integers(0, q, size=m, dtype=np.int64),
                row_space(rng.integers(0, q, size=(db, m), dtype=np.int64), q),
            )
            want_sum = {tuple((np.array(x) + np.array(y)) % q) for x in _coset(a) for y in _coset(b)}
            assert _coset(affine_sum(a, b)) == want_sum
            disjoint += _check_intersection(a, b) is None
            h = random_invertible(m, q, rng)
            want_img = {tuple((np.array(x) @ h) % q) for x in _coset(a)}
            assert _coset(affine_image(a, h)) == want_img
        assert 0 < disjoint < cases
        # points: equal, distinct; parallel lines: equal, disjoint
        p = rng.integers(0, q, size=m, dtype=np.int64)
        e0 = np.eye(m, dtype=np.int64)[0]
        line = Subspace.from_rows(e0[None, :], q)
        point = AffineSubspace.point(p, q)
        assert _check_intersection(point, point) == point
        assert _check_intersection(point, AffineSubspace.point((p + 1) % q, q)) is None
        a = AffineSubspace.from_offset(p, line)
        assert _check_intersection(a, AffineSubspace.from_offset((p + e0) % q, line)) == a
        assert _check_intersection(a, AffineSubspace.from_offset((p + 1 - e0) % q, line)) is None


def _reduce_row_by_row(v, basis, q):
    """Subspace.reduce as a loop: clear v at each RREF row's pivot in turn."""
    for row in basis:
        v = (v - v[np.argmax(row != 0)] * row) % q
    return v


def test_reduce_matches_row_by_row_loop():
    rng = np.random.default_rng(15)
    for q in (2, 3, 5, 65521):
        for _ in range(50):
            m = int(rng.integers(1, 40))
            u = row_space(rng.integers(0, q, size=(int(rng.integers(0, m + 1)), m), dtype=np.int64), q)
            v = rng.integers(0, q, size=m, dtype=np.int64)
            assert np.array_equal(u.reduce(v), _reduce_row_by_row(v, u.basis, q))


def _reference_intersection(a, b):
    """The three-step affine intersection that the one-elimination form
    replaced, on the generic kernel: solve for a common point, intersect the
    directions by Zassenhaus and re-canonicalize, then reduce the point row
    by row.  Returns (offset, basis) or None."""
    q, m = a.q, a.ambient
    u, v = a.direction.basis, b.direction.basis
    du = u.shape[0]
    stacked = np.vstack([u, v])
    # a + c_u U = b - c_v V for coefficients c = (c_u, c_v)
    aug = np.hstack([stacked.T, ((b.offset - a.offset) % q).reshape(-1, 1)])
    r, rk, piv = kernels._rref_numpy(aug, q)
    if rk and piv[rk - 1] == stacked.shape[0]:
        return None
    c = np.zeros(stacked.shape[0], dtype=np.int64)
    c[piv] = r[:rk, -1]
    point = (a.offset + c[:du] @ u) % q
    block = np.zeros((stacked.shape[0], 2 * m), dtype=np.int64)
    block[:, :m] = stacked
    block[:du, m:] = u
    r, rk, _ = kernels._rref_numpy(block, q)
    right = r[:rk, m:][~r[:rk, :m].any(axis=1)]
    r, rk, _ = kernels._rref_numpy(right, q)
    basis = r[:rk]
    return _reduce_row_by_row(point, basis, q), basis


def _random_subspace_in(w, d, q, rng):
    """Random d-dim subspace of the row space of w (full row rank)."""
    return Subspace.from_rows(random_rank_matrix(d, w.shape[0], d, q, rng) @ w % q, q, w.shape[1])


@pytest.mark.parametrize("q", [2, 3])
def test_affine_intersection_matches_reference_at_decoder_shape(q):
    # decoder messages at N = 72: m = 36, direction dims up to 24, pairs
    # whose dims sum past m, cosets that share a point and cosets that do not
    rng = np.random.default_rng(36 + q)
    m = 36
    full = np.eye(m, dtype=np.int64)
    dims = [(0, 0), (0, 24), (12, 12), (12, 24), (24, 24), (20, 17), (1, 0), (24, 13)]
    outcomes = set()
    for case in range(60):
        du, dv = dims[case % len(dims)]
        shape = case // len(dims) % 3
        # shape 0: generic; 1: a shared point; 2: U + V inside a hyperplane
        # that the offset difference leaves, so the cosets are disjoint
        w = full if shape < 2 else random_rank_matrix(m - 1, m, m - 1, q, rng)
        u, v = _random_subspace_in(w, du, q, rng), _random_subspace_in(w, dv, q, rng)
        oa, ob = rng.integers(0, q, size=(2, m), dtype=np.int64)
        if shape == 1:
            ob = oa
        elif shape == 2:
            while Subspace.from_rows(w, q).contains((ob - oa) % q):
                ob = rng.integers(0, q, size=m, dtype=np.int64)
        a, b = AffineSubspace.from_offset(oa, u), AffineSubspace.from_offset(ob, v)
        got = a.intersect(b)
        want = _reference_intersection(a, b)
        if want is None:
            assert got is None
            outcomes.add("disjoint")
        else:
            assert np.array_equal(got.offset, want[0])
            assert np.array_equal(got.direction.basis, want[1])
            outcomes.add("point" if got.is_point() else "coset")
        if shape == 1:
            assert got is not None
        if shape == 2:
            assert got is None
    assert outcomes == {"disjoint", "point", "coset"}


# spanning sets that preimage() takes as they are: (m, q, rng) -> rows
MEET_ROWS = {
    "none": lambda m, q, rng: np.zeros((0, m), dtype=np.int64),
    "generic": lambda m, q, rng: rng.integers(0, q, size=(int(rng.integers(1, m)), m), dtype=np.int64),
    "duplicate rows": lambda m, q, rng: np.tile(
        rng.integers(0, q, size=(int(rng.integers(1, m)), m), dtype=np.int64), (2, 1)
    ),
    "zero rows": lambda m, q, rng: np.vstack(
        [np.zeros((1, m), dtype=np.int64), rng.integers(0, q, size=(1, m), dtype=np.int64),
         np.zeros((2, m), dtype=np.int64)]
    ),
    "more rows than m": lambda m, q, rng: random_rank_matrix(m + 3, m, int(rng.integers(1, m + 1)), q, rng),
    "spanning": lambda m, q, rng: np.vstack(
        [random_invertible(m, q, rng), rng.integers(0, q, size=(2, m), dtype=np.int64)]
    ),
}


def _injective_non_rref(k, m, q, rng):
    """U*h for a full-rank k x m U and an invertible h: injective, and not
    RREF in general, like the decoder's U*h_e."""
    return matmul_mod(random_rank_matrix(k, m, k, q, rng), random_invertible(m, q, rng), q)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(MEET_ROWS))
def test_meet_matches_intersect_and_coset_enumeration(kind, q):
    # preimage(g, p, rows) against enumeration of all c in F_q^k, with k = 0
    # among the coordinate dimensions drawn
    rng = np.random.default_rng([q, sorted(MEET_ROWS).index(kind)])
    m = 4 if q == 2 else 3
    outcomes, ks = set(), set()
    for _ in range(40):
        k = int(rng.integers(0, m + 1))
        ks.add(k)
        g = _injective_non_rref(k, m, q, rng)
        rows = MEET_ROWS[kind](m, q, rng)
        span = Subspace.from_rows(rows, q, ambient=m)
        p = rng.integers(0, q, size=m, dtype=np.int64)
        # the same coset from another member, and a point off image(g) + span
        # whenever that sum is not the whole space
        shifted = (p + rng.integers(0, q, size=rows.shape[0]) @ rows) % q
        points = [p, shifted]
        total = span.add(Subspace.from_rows(g, q, ambient=m))
        if total.dim < m:
            while total.contains(p):
                p = rng.integers(0, q, size=m, dtype=np.int64)
            points.append(p)
        got = [preimage(g, point, rows, q) for point in points]
        for point, res in zip(points, got):
            want = {tuple(c) for c in Subspace.full(k, q).enumerate_vectors()
                    if span.contains((c @ g - point) % q)}
            if res is None:
                assert want == set()
                outcomes.add("disjoint")
                continue
            assert _coset(res) == want
            if k:
                canonical = Subspace.from_rows(res.direction.basis, q, k)
                assert res == AffineSubspace.from_offset(res.offset, canonical)
            outcomes.add("met")
        assert got[0] == got[1]
        if len(points) == 3:
            assert got[2] is None
    assert 0 in ks
    assert outcomes == ({"met"} if kind == "spanning" else {"met", "disjoint"})


@pytest.mark.parametrize("q", [2, 3])
def test_meet_matches_reference_at_decoder_shape(q):
    # the decoder's preimages at N = 72: g = U*h with dim W = 12 in F_q^36
    # against a check output given by up to 5 raw blocks of up to 12 rows
    # each, so up to 60 rows, spanning up to the whole space; mapped through
    # g, the preimage is the meet of g's row space with the check output
    rng = np.random.default_rng(72 + q)
    m, s = 36, 12
    outcomes = set()
    for case in range(24):
        blocks = case % 6
        rows = np.vstack(
            [np.zeros((0, m), dtype=np.int64)]
            + [
                matmul_mod(random_rank_matrix(s, m, int(rng.integers(s // 2, s + 1)), q, rng),
                           random_invertible(m, q, rng), q)
                for _ in range(blocks)
            ]
        )
        g = _injective_non_rref(s, m, q, rng)
        p = rng.integers(0, q, size=m, dtype=np.int64)
        if case % 4 == 1:
            p = rng.integers(0, q, size=s) @ g % q
        got = preimage(g, p, rows, q)
        want = _reference_intersection(
            AffineSubspace.from_offset(np.zeros(m, dtype=np.int64), row_space(g, q)),
            AffineSubspace.from_offset(p, Subspace.from_rows(rows, q, m)),
        )
        if want is None:
            assert got is None
            outcomes.add("disjoint")
        else:
            image = AffineSubspace.from_offset(
                got.offset @ g % q, Subspace.from_rows(matmul_mod(got.direction.basis, g, q), q, m)
            )
            assert np.array_equal(image.offset, want[0])
            assert np.array_equal(image.direction.basis, want[1])
            outcomes.add("point" if got.is_point() else "coset")
    assert outcomes == {"disjoint", "point", "coset"}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_preimage_batch_matches_preimage_loop(q):
    # one stack of every k from 0 to m, every kind of spanning set and points
    # on and off the set, as in the decoder's mixed-k decision stacks
    rng = np.random.default_rng(90 + q)
    m = 6
    items = []
    for i in range(42):
        k = i % (m + 1)
        g = _injective_non_rref(k, m, q, rng)
        rows = MEET_ROWS[sorted(MEET_ROWS)[i % len(MEET_ROWS)]](m, q, rng)
        p = rng.integers(0, q, size=m, dtype=np.int64)
        if i % 2:
            p = (rng.integers(0, q, size=k) @ g + rng.integers(0, q, size=rows.shape[0]) @ rows) % q
        items.append((g, p, rows))
    got = linalg.preimage_batch(items, q)
    want = [preimage(g, p, rows, q) for g, p, rows in items]
    assert got == want
    assert {res is None for res in want} == {True, False}
    assert any(res is not None and res.ambient == 0 for res in want)
    assert linalg.preimage_batch([], q) == []


def test_coset_of_zero_dimensional_space():
    # F_q^0 holds one vector, the empty one; a decision at s = 0 is a preimage
    # with k = m = 0
    for q in (2, 3):
        zero = Subspace.zero(0, q)
        empty = np.zeros(0, dtype=np.int64)
        assert zero.reduce(empty).shape == (0,)
        assert zero == Subspace.full(0, q) and zero.contains(empty)
        coset = AffineSubspace.from_offset(empty, zero)
        assert coset.is_point() and coset.contains(empty)
        assert coset.intersect(coset) == coset
        assert preimage(np.zeros((0, 0), dtype=np.int64), empty, np.zeros((0, 0), dtype=np.int64), q) == coset


def test_one_elimination_per_subspace_operation(monkeypatch):
    calls = []

    def counting(a, q):
        calls.append(np.shape(a))
        return kernels.rref_mod(a, q)

    def counting_batch(a, q):
        calls.extend(np.shape(b) for b in a)
        return kernels.rref_mod_batch(a, q)

    monkeypatch.setattr(linalg, "rref_mod", counting)
    monkeypatch.setattr(linalg, "rref_mod_batch", counting_batch)
    rng = np.random.default_rng(14)
    q, m = 3, 6
    u = row_space(random_rank_matrix(3, m, 3, q, rng), q)
    v = row_space(random_rank_matrix(4, m, 4, q, rng), q)
    a = AffineSubspace.from_offset(rng.integers(0, q, size=m, dtype=np.int64), u)
    b = AffineSubspace.from_offset(rng.integers(0, q, size=m, dtype=np.int64), v)
    rows = np.vstack([v.basis, v.basis, np.zeros((1, m), dtype=np.int64)])
    ops = [
        (lambda: a.intersect(b), 1),
        (lambda: preimage(matmul_mod(u.basis, random_invertible(m, q, rng), q), b.offset, rows, q), 1),
        (lambda: u.intersect(v), 1),
        (lambda: u.reduce(rng.integers(0, q, size=m)), 0),
        # one elimination of [a | b]; the nullspace basis read off it is not
        # RREF in general (see test_solve_nullspace_is_canonical), so
        # Subspace.from_rows canonicalizes it
        (lambda: solve(random_rank_matrix(4, m, 3, q, rng), np.zeros(4, dtype=np.int64), q), 2),
    ]
    for op, want in ops:
        calls.clear()
        op()
        assert len(calls) == want


def test_affine_canonical_representation_equality():
    rng = np.random.default_rng(12)
    q, m = 3, 4
    for _ in range(100):
        d = int(rng.integers(0, m + 1))
        direction = row_space(rng.integers(0, q, size=(d, m), dtype=np.int64), q)
        off = rng.integers(0, q, size=m, dtype=np.int64)
        a = AffineSubspace.from_offset(off, direction)
        assert a.contains(off)
        # shifting the offset by any direction member leaves the value equal
        for v in direction.basis:
            shifted = AffineSubspace.from_offset((off + v) % q, direction)
            assert shifted == a


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_gaussian_binomial_trivial():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 3) == 1


def test_gaussian_binomial_lines_of_f2sq():
    assert gaussian_binomial(2, 1, 2) == 3


def test_gaussian_binomial_f2_4_brute_force():
    # enumerate all 2-dim subspaces of F_2^4 via canonical row spaces
    q, m, k = 2, 4, 2
    seen = set()
    vectors = list(itertools.product(range(q), repeat=m))
    for v1 in vectors:
        for v2 in vectors:
            s = row_space(np.array([v1, v2], dtype=np.int64), q)
            if s.dim == k:
                seen.add(s)
    assert len(seen) == 35
    assert gaussian_binomial(m, k, q) == 35


def test_gaussian_binomial_range_check():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)


def test_gaussian_binomial_q_pascal_identity():
    # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q, exercised into > 64-bit values
    for q in (2, 3, 5):
        for n in range(1, 41, 4):
            for k in range(0, n + 1):
                want = gaussian_binomial(n, k, q)
                got = (gaussian_binomial(n - 1, k - 1, q) if k >= 1 else 0) + (
                    q**k * gaussian_binomial(n - 1, k, q) if k <= n - 1 else 0
                )
                assert got == want
    assert gaussian_binomial(40, 20, 2) > 2**63  # big-int regime is exercised


def test_random_subspace_basis_uniform_row_space():
    # 2-dim subspaces of F_2^4: 35 equally likely row spaces
    from snclab.linalg import random_subspace_basis

    rng = np.random.default_rng(2025)
    counts = {}
    for _ in range(7000):
        s = row_space(random_subspace_basis(4, 2, 2, rng), 2)
        assert s.dim == 2
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 35
    assert chi_square_uniform(list(counts.values()))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_matrix_text_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = int(rng.choice([2, 3, 11]))
        rows, cols = rng.integers(1, 6, size=2)
        a = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
        text = dump_matrix_text(a, q)
        b, q2 = load_matrix_text(text)
        assert q2 == q
        assert np.array_equal(a, b)
    first_line = dump_matrix_text(np.array([[1, 0]], dtype=np.int64), 2).splitlines()[0]
    assert first_line == "1 2 2"
