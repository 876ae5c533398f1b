"""Hot GF(q) matrix kernels in plain numpy, with a bit-packed GF(2) path.

Everything downstream (canonical forms, subspace algebra, encoding, decoding,
density evolution) funnels its inner loops through the four functions
exported here:

    rref_mod(a, q)        -> (rref matrix, rank, pivot columns)
    rank_mod(a, q)        -> rank
    rank_mod_batch(a, q)  -> ranks of a (B, r, c) stack
    matmul_mod(a, b, q)

The generic kernel ``_rref_numpy`` eliminates one column at a time.  At each
pivot it updates only the rows with a nonzero entry in the pivot column, and
only from the pivot column on (the pivot row is zero to its left), so a
block-sparse system such as the lifted encoder's (one m x m label per edge)
costs its fill-in, not its full size.  At q = 2, matrices of at least
``GF2_PACKED_MIN_CELLS`` entries take the M4RI-style packed path instead
(Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS 2010): each row is held as
``uint64`` words and elimination is a row XOR from the pivot word onward.
The RREF is canonical, so it returns exactly what ``_rref_numpy`` would;
smaller shapes and odd q keep ``_rref_numpy``.  The tests check both against
a dense full-matrix elimination loop.

``rank_mod_batch`` eliminates a whole stack of small matrices at once, one
column at a time for every matrix together, so thousands of tiny ranks cost a
few dozen numpy calls instead of thousands.  At q = 2 with at most 64
columns each row is a single ``uint64`` word; every other stack runs the
same column loop on integers reduced mod q.  ``rank_mod`` is its oracle.

Matrices are dense ``numpy.int64`` arrays with entries in ``[0, q)`` for a
prime modulus ``q < 2**16`` (products stay far below int64 overflow).
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int64


def _work_dtype(q: int) -> np.dtype:
    """Narrowest signed dtype that holds a - b * c for a, b, c in [0, q)."""
    return np.min_scalar_type(-((q - 1) ** 2))


def _rref_numpy(a, q):
    r = a.astype(_work_dtype(q))
    rows, cols = r.shape
    pivots = []
    rank = 0
    for col in range(cols):
        hit = r[:, col].nonzero()[0]
        i = hit.searchsorted(rank)
        if i == hit.size:
            continue
        p = hit[i]
        # rows at and below `rank` are zero left of `col`, pivot row included
        pivot = r[p, col:]
        if pivot[0] != 1:
            pivot *= pow(int(pivot[0]), q - 2, q)
            pivot %= q
        if hit.size > 1:
            sub = r[hit, col:]
            sub -= sub[:, :1] * pivot
            sub %= q
            sub[i] = pivot
            r[hit, col:] = sub
        if p != rank:
            r[[rank, p]] = r[[p, rank]]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return r.astype(DTYPE), rank, np.array(pivots, dtype=DTYPE)


# ---------------------------------------------------------------------------
# bit-packed GF(2) path: bit j of a row is bit j % 64 of word j // 64
# ---------------------------------------------------------------------------

# Smallest rows * cols sent to the packed path at q = 2.  In three runs of
# the crossover sweep of ``benchmarks/bench_kernels.py`` (numpy 2.4, 2 CPUs)
# the packed path beat the row-sparse ``_rref_numpy`` on every swept shape
# from 1152-1728 cells up and mostly lost below 576; in between, single
# shapes swung from 0.6x to 1.5x from run to run, a tie.  So 12x36 and the
# deviation grid's m <= 7 shapes stay on the numpy kernel.
GF2_PACKED_MIN_CELLS = 640

_WORD = np.dtype("<u8")
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _pack_gf2(a: np.ndarray) -> np.ndarray:
    rows, cols = a.shape
    n_words = max(1, -(-cols // 64))
    bits = np.zeros((rows, 64 * n_words), dtype=np.uint8)
    bits[:, :cols] = a & 1
    return np.packbits(bits, axis=1, bitorder="little").view(_WORD)


def _unpack_gf2(words: np.ndarray, cols: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, count=cols, bitorder="little").astype(DTYPE)


def _eliminate_gf2(words: np.ndarray, cols: int, reduce: bool):
    """Eliminate the packed rows in place, column by column as ``_rref_numpy``
    does.  Clears each pivot column above the pivot too when ``reduce``."""
    rows = words.shape[0]
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        w = col >> 6
        column = words[:, w] & _BITS[col & 63]
        nz = np.flatnonzero(column[rank:])
        if nz.size == 0:
            continue
        p = rank + int(nz[0])
        if p != rank:
            words[[rank, p]] = words[[p, rank]]
            column[p] = column[rank]
        column[rank] = 0
        if not reduce:
            column[:rank] = 0
        words[np.flatnonzero(column), w:] ^= words[rank, w:]
        pivots.append(col)
        rank += 1
    return rank, pivots


def _rref_gf2(a: np.ndarray):
    words = _pack_gf2(a)
    rank, pivots = _eliminate_gf2(words, a.shape[1], reduce=True)
    return _unpack_gf2(words, a.shape[1]), rank, np.array(pivots, dtype=DTYPE)


def _rank_gf2(a: np.ndarray) -> int:
    return _eliminate_gf2(_pack_gf2(a), a.shape[1], reduce=False)[0]


def _packed(a: np.ndarray, q: int) -> bool:
    return q == 2 and a.size >= GF2_PACKED_MIN_CELLS


def rref_mod(a: np.ndarray, q: int):
    """Reduced row echelon form of ``a`` over F_q.

    Returns ``(r, rank, pivot_cols)``; ``r`` is the canonical RREF (unit
    pivots, zeros above and below, pivot columns strictly increasing).
    """
    a = np.ascontiguousarray(a, dtype=DTYPE)
    if _packed(a, q):
        return _rref_gf2(a)
    return _rref_numpy(a, q)


def rank_mod(a: np.ndarray, q: int) -> int:
    """Rank of ``a`` over F_q."""
    a = np.ascontiguousarray(a, dtype=DTYPE)
    if _packed(a, q):
        return _rank_gf2(a)
    return _rref_numpy(a, q)[1]


def _rank_batch_gf2(a: np.ndarray) -> np.ndarray:
    batch, rows, cols = a.shape
    words = _pack_gf2(a.reshape(batch * rows, cols)).reshape(batch, rows)
    ranks = np.zeros(batch, dtype=DTYPE)
    at = np.arange(batch)
    zero = np.uint64(0)
    for col in range(cols):
        hit = (words & _BITS[col]) != 0
        p = hit.argmax(axis=1)
        ranks += hit[at, p]
        words ^= np.where(hit, words[at, p][:, None], zero)
        if ranks.min() == rows:
            break
    return ranks


def _inverses(q: int) -> np.ndarray:
    """v^(q-2) mod q for every v in [0, q): the inverse of each nonzero v."""
    inv = np.ones(q, dtype=DTYPE)
    base = np.arange(q, dtype=DTYPE)
    e = q - 2
    while e > 0:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    return inv


def _rank_batch_generic(a: np.ndarray, q: int) -> np.ndarray:
    a = a.astype(_work_dtype(q))
    batch, rows, cols = a.shape
    inv = _inverses(q).astype(a.dtype)
    ranks = np.zeros(batch, dtype=DTYPE)
    at = np.arange(batch)
    for col in range(cols):
        column = a[:, :, col]
        p = (column != 0).argmax(axis=1)
        pivot = a[at, p, col:]
        ranks += pivot[:, 0] != 0
        pivot = pivot * inv[pivot[:, 0]][:, None] % q
        rest = a[:, :, col:]
        rest -= column[:, :, None] * pivot[:, None, :]
        rest %= q
        if ranks.min() == rows:
            break
    return ranks


def rank_mod_batch(a: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a stack ``a`` of shape ``(B, r, c)``, as a length-B
    int64 array equal to ``[rank_mod(m, q) for m in a]``.

    Forward elimination runs column by column on every matrix at once: each
    matrix takes its first row with a nonzero entry in the column as pivot
    and clears the column in every such row, the pivot row included.  The
    pivot row is then zero (its earlier columns were cleared before), so it
    never pivots again, and the rank is the number of columns that found a
    pivot.  Integer stacks of any width are taken as they are, so callers may
    hold large stacks in ``uint8`` or ``uint16``.
    """
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"need a (B, r, c) stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    if batch * rows * cols == 0:
        return np.zeros(batch, dtype=DTYPE)
    if q == 2 and cols <= 64:
        return _rank_batch_gf2(a)
    return _rank_batch_generic(a, q)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b`` over F_q."""
    a = np.ascontiguousarray(a, dtype=DTYPE)
    b = np.ascontiguousarray(b, dtype=DTYPE)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
    return (a @ b) % q
