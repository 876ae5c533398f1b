"""Kernel equivalence: the row-sparse generic kernel ``_rref_numpy``, the
bit-packed GF(2) paths and the batched rank must return the same canonical
RREF, rank and pivots as ``dense_rref_reference``, a dense full-matrix
elimination loop that is their oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snclab import kernels
from snclab.channel import validate_params
from snclab.ensemble import build_code


def dense_rref_reference(a, q):
    """Canonical RREF by dense elimination: at every pivot, subtract a multiple
    of the pivot row from every row, over all columns, in int64."""
    r = np.array(a, dtype=np.int64)
    rows, cols = r.shape
    pivots = []
    rank = 0
    for col in range(cols):
        nz = np.nonzero(r[rank:, col])[0]
        if nz.size == 0:
            continue
        p = rank + int(nz[0])
        if p != rank:
            r[[rank, p]] = r[[p, rank]]
        v = int(r[rank, col])
        if v != 1:
            r[rank] = (r[rank] * pow(v, q - 2, q)) % q
        f = r[:, col].copy()
        f[rank] = 0
        r -= np.outer(f, r[rank])
        r %= q
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return r, rank, np.array(pivots, dtype=np.int64)


def _assert_matches_reference(got, a, q):
    r, rank, piv = dense_rref_reference(a, q)
    r2, rank2, piv2 = got
    assert rank2 == rank
    assert r2.dtype == r.dtype and np.array_equal(r2, r)
    assert piv2.dtype == piv.dtype and np.array_equal(piv2, piv)


def _random_cases(rng, n_cases=60):
    cases = []
    for _ in range(n_cases):
        q = int(rng.choice([2, 3, 5, 7, 251]))
        rows = int(rng.integers(0, 9))
        cols = int(rng.integers(1, 9))
        cases.append((rng.integers(0, q, size=(rows, cols), dtype=np.int64), q))
    return cases


def test_rref_is_canonical_rref():
    rng = np.random.default_rng(9)
    for a, q in _random_cases(rng, 30):
        r, rank, piv = kernels.rref_mod(a, q)
        piv = list(piv)
        assert rank == len(piv)
        assert piv == sorted(piv)
        for i, p in enumerate(piv):
            col = np.zeros(r.shape[0], dtype=np.int64)
            col[i] = 1
            assert np.array_equal(r[:, p], col)
        # rows past the rank are zero
        assert not r[rank:].any()


def test_rref_idempotent():
    rng = np.random.default_rng(10)
    for a, q in _random_cases(rng, 30):
        r, rank, _ = kernels.rref_mod(a, q)
        r2, rank2, _ = kernels.rref_mod(r, q)
        assert rank == rank2
        assert np.array_equal(r, r2)


def test_matmul_matches_python_ints():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = int(rng.choice([2, 5, 65521]))
        n, k, m = rng.integers(1, 5, size=3)
        a = rng.integers(0, q, size=(n, k), dtype=np.int64)
        b = rng.integers(0, q, size=(k, m), dtype=np.int64)
        want = np.array(
            [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % q for j in range(m)] for i in range(n)],
            dtype=np.int64,
        )
        assert np.array_equal(kernels.matmul_mod(a, b, q), want)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        kernels.matmul_mod(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64), 2)


def _assert_same_rref(a):
    _assert_matches_reference(kernels._rref_gf2(a), a, 2)
    assert kernels._rank_gf2(a) == dense_rref_reference(a, 2)[1]


# column counts on both sides of the 64-bit word boundaries
@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 150),
    cols=st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]) | st.integers(1, 140),
    density=st.sampled_from([0.0, 0.03, 0.2, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_gf2_matches_reference(rows, cols, density, seed):
    a = (np.random.default_rng(seed).random((rows, cols)) < density).astype(np.int64)
    _assert_same_rref(a)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 90),
    cols=st.sampled_from([63, 64, 65, 127, 128, 129]),
    rank=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_gf2_low_rank_and_duplicate_rows(rows, cols, rank, seed):
    # products of thin factors: many dependent rows and non-pivot columns
    rng = np.random.default_rng(seed)
    a = (rng.integers(0, 2, (rows, rank)) @ rng.integers(0, 2, (rank, cols))) % 2
    _assert_same_rref(a)
    assert kernels.rank_mod(a, 2) == dense_rref_reference(a, 2)[1]


def test_packed_gf2_on_encoder_system():
    params = validate_params(2, 72, Fraction(1, 2), Fraction(1, 3))
    code = build_code(params, 3, 6, np.random.default_rng(5))
    system = code.constraint_matrix()
    assert system.shape == (468, 864)
    _assert_same_rref(system)


def _sparse(rng, q, shape, density):
    return (rng.random(shape) < density) * rng.integers(1, q, shape)


def _block_sparse_system(rng, q, m, n_v, n_c, density):
    """A lifted system shaped like ``LiftedCode.constraint_matrix``: n_c x n_v
    blocks of m x m, each variable with blocks in two distinct checks."""
    a = np.zeros((n_c * m, n_v * m), dtype=np.int64)
    for v in range(n_v):
        for c in rng.choice(n_c, 2, replace=False):
            a[c * m : (c + 1) * m, v * m : (v + 1) * m] = _sparse(rng, q, (m, m), density)
    return a


# the generic kernel on every field it serves: odd q, and q = 2 below the
# packed path's threshold; tall and wide shapes, block-sparse lifted systems,
# densities from 0 to 1 and low-rank products
@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["random", "low rank", "lifted"]),
    shape=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    tall=st.booleans(),
    rank=st.integers(0, 8),
    blocks=st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(2, 5)),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generic_rref_matches_dense_reference(q, kind, shape, tall, rank, blocks, density, seed):
    rng = np.random.default_rng(seed)
    rows, cols = sorted(shape, reverse=tall)
    if kind == "random":
        a = _sparse(rng, q, (rows, cols), density)
    elif kind == "low rank":
        a = (_sparse(rng, q, (rows, rank), density) @ _sparse(rng, q, (rank, cols), density)) % q
    else:
        a = _block_sparse_system(rng, q, *blocks, density)
    if q == 2:  # keep q = 2 on the generic kernel
        a = a[: (kernels.GF2_PACKED_MIN_CELLS - 1) // max(1, a.shape[1])]
    _assert_matches_reference(kernels._rref_numpy(np.ascontiguousarray(a, dtype=np.int64), q), a, q)
    assert kernels.rank_mod(a, q) == dense_rref_reference(a, q)[1]


def test_generic_rref_on_odd_q_encoder_system():
    params = validate_params(3, 72, Fraction(1, 2), Fraction(1, 3))
    code = build_code(params, 3, 6, np.random.default_rng(5))
    system = code.constraint_matrix()
    assert system.shape == (468, 864)
    _assert_matches_reference(kernels.rref_mod(system, 3), system, 3)
    assert code.info_length() == 396


def test_rank_mod_agrees_with_reference():
    rng = np.random.default_rng(12)
    for q in (2, 3, 5):
        for rows, cols in [(0, 5), (3, 4), (12, 36), (24, 72), (72, 36), (40, 129)]:
            a = rng.integers(0, q, (rows, cols), dtype=np.int64)
            assert kernels.rank_mod(a, q) == dense_rref_reference(a, q)[1]


def test_dispatch_by_field_and_shape(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "_rref_gf2", lambda a: calls.append(a.shape) or dense_rref_reference(a, 2))
    monkeypatch.setattr(kernels, "_rank_gf2", lambda a: calls.append(a.shape) or dense_rref_reference(a, 2)[1])
    rng = np.random.default_rng(13)
    big = (40, 72)
    assert big[0] * big[1] >= kernels.GF2_PACKED_MIN_CELLS
    for q in (3, 5):
        a = rng.integers(0, q, big, dtype=np.int64)
        _assert_matches_reference(kernels.rref_mod(a, q), a, q)
        assert kernels.rank_mod(a, q) == dense_rref_reference(a, q)[1]
    small = rng.integers(0, 2, (12, 36), dtype=np.int64)
    assert small.size < kernels.GF2_PACKED_MIN_CELLS
    kernels.rref_mod(small, 2)
    kernels.rank_mod(small, 2)
    assert calls == []
    a = rng.integers(0, 2, big, dtype=np.int64)
    kernels.rref_mod(a, 2)
    kernels.rank_mod(a, 2)
    assert calls == [big, big]


def test_backend_variable_is_inert():
    # a stale backend switch left in the environment must neither break the
    # import nor change a result; only a fresh interpreter re-imports snclab
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ, SNCLAB_BACKEND="numba")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import snclab; from snclab.kernels import rref_mod; print(rref_mod([[1, 1], [0, 1]], 2)[1])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2"


def test_rank_mod_batch_rejects_non_stack():
    for batched in (kernels.rank_mod_batch, kernels.rref_mod_batch):
        with pytest.raises(ValueError):
            batched(np.zeros((2, 3), dtype=np.int64), 2)


# q = 2 takes the one-word packed path up to 64 columns and the generic one past it
@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    batch=st.integers(0, 12),
    rows=st.integers(0, 12),
    cols=st.sampled_from([0, 1, 63, 64, 65]) | st.integers(1, 24),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]),
    rank=st.none() | st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_batch_matches_rank_mod_loop(q, batch, rows, cols, density, rank, seed):
    rng = np.random.default_rng(seed)

    def sparse(shape):
        return (rng.random(shape) < density) * rng.integers(1, q, shape)

    if rank is None:
        a = sparse((batch, rows, cols))
    else:  # products of thin factors: rank at most `rank`
        a = (sparse((batch, rows, rank)) @ sparse((batch, rank, cols))) % q
    got = kernels.rank_mod_batch(a, q)
    assert got.dtype == np.int64
    assert got.tolist() == [kernels.rank_mod(m, q) for m in a]


# int64 stacks are the reference: the narrow ones must rank the same, on both
# the one-word GF(2) path and the generic column loop, and stay unchanged
@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int8, np.int16, np.int32]),
    batch=st.integers(0, 8),
    rows=st.integers(0, 10),
    cols=st.sampled_from([1, 36, 64, 65]) | st.integers(1, 12),
    rank=st.none() | st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_batch_narrow_input_matches_int64(q, dtype, batch, rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    if rank is None:
        a = rng.integers(0, q, (batch, rows, cols), dtype=np.int64)
    else:
        a = (rng.integers(0, q, (batch, rows, rank)) @ rng.integers(0, q, (batch, rank, cols))) % q
    narrow = a.astype(dtype)
    got = kernels.rank_mod_batch(narrow, q)
    assert got.dtype == np.int64
    assert got.tolist() == kernels.rank_mod_batch(a, q).tolist()
    assert np.array_equal(narrow, a)


# q = 65521 takes the int64 work dtype; q = 2 the one-word path up to 64
# columns and the generic one past it; zero padding and all-zero matrices as
# the decoder's mixed-k stacks have them
@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7, 65521]),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
    batch=st.sampled_from([0, 1]) | st.integers(2, 10),
    rows=st.integers(0, 14),
    cols=st.sampled_from([0, 1, 49, 63, 64, 65, 80]) | st.integers(1, 20),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    rank=st.none() | st.integers(0, 6),
    pad=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_mod_batch_matches_rref_mod_loop(q, dtype, batch, rows, cols, density, rank, pad, seed):
    rng = np.random.default_rng(seed)
    top = min(q, np.iinfo(dtype).max + 1)

    def sparse(shape):
        return (rng.random(shape) < density) * rng.integers(1, top, shape)

    if rank is None:
        a = sparse((batch, rows, cols))
    else:  # products of thin factors: rank at most `rank`
        a = (sparse((batch, rows, rank)) @ sparse((batch, rank, cols))) % q % top
    # zero rows below and zero columns right, each matrix its own amount
    for b in range(batch):
        a[b, rows - min(pad[0] + b % 3, rows) :] = 0
        a[b, :, cols - min(pad[1] + b % 2, cols) :] = 0
    a = a.astype(dtype)
    before = a.copy()
    r, ranks, pivots = kernels.rref_mod_batch(a, q)
    assert r.shape == a.shape and ranks.shape == (batch,) and pivots.shape == (batch, rows)
    assert ranks.dtype == np.int64 and pivots.dtype == np.int64
    for b in range(batch):
        want, rk, piv = kernels.rref_mod(a[b], q)
        assert np.array_equal(r[b], want)
        assert ranks[b] == rk
        assert pivots[b].tolist() == piv.tolist() + [cols] * (rows - rk)
    assert np.array_equal(a, before)
