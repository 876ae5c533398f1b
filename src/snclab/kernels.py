"""Hot GF(q) matrix kernels in plain numpy, with a bit-packed GF(2) path.

Everything downstream (canonical forms, subspace algebra, encoding, decoding,
density evolution) funnels its inner loops through the five functions
exported here:

    rref_mod(a, q)        -> (rref matrix, rank, pivot columns)
    rank_mod(a, q)        -> rank
    rref_mod_batch(a, q)  -> (rrefs, ranks, padded pivot columns) of a
                             (B, r, c) stack
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

The batched kernels eliminate a whole stack of small matrices at once, one
column at a time for every matrix together, so thousands of small
eliminations cost a few hundred numpy calls instead of thousands of loops.
At q = 2 with at most 64 columns each row is a single ``uint64`` word and
elimination is an XOR.  Every other stack runs ``_eliminate_batch`` with lazy
reduction: only the current column and the pivot row are reduced mod q, so
an entry may fall to -c (q-1)^2 before its column comes up, and the stack is
held in the narrowest signed dtype that holds c (q-1)^2 + q (int16 for a
49-column stack at q = 3, int64 at q = 65521).  Neither moves a row while it
eliminates; ``rref_mod_batch`` then orders each matrix's rows by one stable
sort on their pivot columns, rows that never pivoted (zero) last.
``rref_mod`` and ``rank_mod`` are their oracles.

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

# Smallest rows * cols sent to the packed path at q = 2.  Timed on single
# eliminations of N=72 decoder shapes (``benchmarks/bench_kernels.py``, numpy
# 2.4, 2 CPUs), the packed path beats the row-sparse ``_rref_numpy`` from
# 27x49 = 1323 cells up, ties at 1274 and loses or ties below (0.4-0.99x),
# so 12x36 and the other small shapes stay on the numpy kernel.  On the
# calls of a whole q = 2 N=72 trial, now that the decoder batches its
# eliminations, thresholds from 1280 up to the encoder system's 404352 cells
# time the same within noise.
GF2_PACKED_MIN_CELLS = 1280

_WORD = np.dtype("<u8")
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _pack_gf2(a: np.ndarray) -> np.ndarray:
    rows, cols = a.shape
    n_words = max(1, -(-cols // 64))
    bits = np.zeros((rows, 64 * n_words), dtype=np.uint8)
    bits[:, :cols] = a & 1
    return np.packbits(bits, axis=1, bitorder="little").view(_WORD)


def _unpack_gf2(words: np.ndarray, cols: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, count=cols, bitorder="little")


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
    return _unpack_gf2(words, a.shape[1]).astype(DTYPE), rank, np.array(pivots, dtype=DTYPE)


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


def _rref_batch_gf2(a: np.ndarray):
    """``_eliminate_batch(..., rref=True)`` at q = 2 on one ``uint64`` word
    per row, for at most 64 columns: every other row with the pivot bit XORs
    the pivot row."""
    batch, rows, cols = a.shape
    words = _pack_gf2(a.reshape(batch * rows, cols)).reshape(batch, rows)
    pivot_of = np.full((batch, rows), cols, dtype=DTYPE)
    at = np.arange(batch)
    zero = np.uint64(0)
    for col in range(cols):
        hit = (words & _BITS[col]) != 0
        free = hit & (pivot_of == cols)
        p = free.argmax(axis=1)
        found = free[at, p]
        hit[at, p] = False
        hit &= found[:, None]
        words ^= np.where(hit, words[at, p][:, None], zero)
        pivot_of[at[found], p[found]] = col
    return words, pivot_of


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


def _columns(a: np.ndarray, q: int) -> np.ndarray:
    """A copy of the stack ``a`` (B, r, c) stored by columns, (B, c, r), in
    the narrowest signed dtype ``_eliminate_batch`` may use: an entry starts
    in [0, q) and, until its own column comes up, loses at most (q - 1)^2
    per column step."""
    cols = a.shape[2]
    return a.transpose(0, 2, 1).astype(np.min_scalar_type(-(cols * (q - 1) ** 2 + q)), order="C")


def _eliminate_batch(t: np.ndarray, q: int, rref: bool):
    """Gauss-Jordan elimination of every matrix of the ``_columns`` stack
    ``t`` at once, in place, with lazy reduction mod q.

    At each column every matrix takes its first row that has not pivoted yet
    and is nonzero there, and clears the column in every other row.  Only the
    current column and the pivot row are reduced mod q, so the other entries
    drift below zero by at most (q - 1)^2 per step; the cleared entries and
    the unit pivot are exact.  Columns left of the current one are final mod
    q and never touched again.  With ``rref`` the pivot row becomes the unit
    pivot row; without it, it clears itself too, so a zero row needs no mark
    to never pivot again and only the ranks count.  Returns the pivot column
    of each row (``c`` for rows that never pivot, which end zero mod q; all
    ``c`` without ``rref``) and the ranks.
    """
    batch, cols, rows = t.shape
    inv = _inverses(q).astype(t.dtype)
    at = np.arange(batch)
    pivot_of = np.full((batch, rows), cols, dtype=DTYPE)
    ranks = np.zeros(batch, dtype=DTYPE)
    if rows == 0:
        return pivot_of, ranks
    for col in range(cols):
        column = t[:, col]
        column %= q
        free = column != 0
        if rref:
            free &= pivot_of == cols
        p = free.argmax(axis=1)
        found = free[at, p]
        if not found.any():
            continue
        pivot = t[at, col:, p] % q
        pivot *= inv[pivot[:, 0]][:, None]
        pivot %= q
        factor = column
        if rref:
            # the pivot row takes v - 1 times the unit pivot row, v its entry
            factor = column * found[:, None]
            factor[at, p] -= found
            pivot_of[at[found], p[found]] = col
        t[:, col:] -= pivot[:, :, None] * factor[:, None, :]
        ranks += found
        if ranks.min() == rows:
            break
    return pivot_of, ranks


def rank_mod_batch(a: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a stack ``a`` of shape ``(B, r, c)``, as a length-B
    int64 array equal to ``[rank_mod(m, q) for m in a]``.

    Elimination runs column by column on every matrix at once, one word per
    row at q = 2 with at most 64 columns (``_rank_batch_gf2``) and
    ``_eliminate_batch`` otherwise; the rank is the number of columns that
    found a pivot.  Integer stacks of any width are taken as they are, so
    callers may hold large stacks in ``uint8`` or ``uint16``.
    """
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"need a (B, r, c) stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    if batch * rows * cols == 0:
        return np.zeros(batch, dtype=DTYPE)
    if q == 2 and cols <= 64:
        return _rank_batch_gf2(a)
    return _eliminate_batch(_columns(a, q), q, rref=False)[1]


def rref_mod_batch(a: np.ndarray, q: int):
    """Canonical RREFs over F_q of a stack ``a`` of shape ``(B, r, c)``.

    Returns ``(r, ranks, pivots)``: ``r[b]`` equals ``rref_mod(a[b], q)[0]``
    in value, held in a narrow integer dtype (cast it before mixing it with
    int64 matrices); ``ranks`` is int64 of length B; ``pivots[b]`` lists the
    pivot columns of ``r[b]`` and pads them with ``c`` to length r.  Every
    matrix is eliminated without moving its rows (``_eliminate_batch``, or
    one word per row at q = 2 with at most 64 columns), and one stable sort
    of the rows by pivot column then gives RREF order, the zero rows last.
    Integer stacks of any width are taken as they are and left unchanged.
    """
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"need a (B, r, c) stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    at = np.arange(batch)[:, None]
    if q == 2 and cols <= 64 and a.size:
        words, pivot_of = _rref_batch_gf2(a)
        order = np.argsort(pivot_of, axis=1, kind="stable")
        r = _unpack_gf2(words[at, order].reshape(batch * rows, 1), cols).reshape(batch, rows, cols)
    else:
        t = _columns(a, q)
        pivot_of = _eliminate_batch(t, q, rref=True)[0]
        t %= q
        order = np.argsort(pivot_of, axis=1, kind="stable")
        r = t[at, :, order]
    pivots = pivot_of[at, order]
    return r, (pivots < cols).sum(axis=1), pivots


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b`` over F_q."""
    a = np.ascontiguousarray(a, dtype=DTYPE)
    b = np.ascontiguousarray(b, dtype=DTYPE)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
    return (a @ b) % q
