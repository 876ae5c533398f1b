"""Exact linear algebra over prime fields F_q.

Matrices are plain ``numpy.int64`` arrays with entries in ``[0, q)``;
``Subspace`` and ``AffineSubspace`` wrap them in the canonical forms the rest
of the package relies on (RREF bases, canonical coset offsets), so value
equality is representation equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .kernels import DTYPE, matmul_mod, rank_mod, rank_mod_batch, rref_mod, rref_mod_batch

Q_MAX = 1 << 16
# Candidate entries random_full_rank_stack draws at once: one block for 48
# labels at m = 36 or 256 subspace bases up to m = 20, and at most 8 MB of
# int64 at any shape.
_BLOCK_ENTRIES = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field F_q."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int):
            raise TypeError(f"field modulus must be int, got {type(self.q)}")
        if not 2 <= self.q <= Q_MAX:
            raise ValueError(f"field modulus must be in [2, {Q_MAX}], got {self.q}")
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")


def as_matrix(entries, q: int) -> np.ndarray:
    """Validate and convert ``entries`` to a 2-D int64 matrix over F_q."""
    a = np.asarray(entries, dtype=DTYPE)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= q):
        raise ValueError(f"entries must lie in [0, {q})")
    return a


def as_vector(entries, q: int) -> np.ndarray:
    a = np.asarray(entries, dtype=DTYPE)
    if a.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= q):
        raise ValueError(f"entries must lie in [0, {q})")
    return a


class RrefResult(NamedTuple):
    matrix: np.ndarray
    rank: int
    pivot_cols: tuple


def rref(a: np.ndarray, q: int) -> RrefResult:
    """Canonical reduced row echelon form of ``a`` over F_q."""
    r, rank, piv = rref_mod(a, q)
    return RrefResult(r, rank, tuple(int(c) for c in piv))


def rank(a: np.ndarray, q: int) -> int:
    return rank_mod(a, q)


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


class Solution(NamedTuple):
    """Particular solution of a*x = b plus the nullspace of a."""

    particular: np.ndarray
    nullspace: "Subspace"


def solve(a: np.ndarray, b: np.ndarray, q: int) -> Optional[Solution]:
    """Solve a*x = b over F_q.

    Returns None when the system is inconsistent; otherwise a particular
    solution (free coordinates set to zero) together with the nullspace.
    Both are read off one RREF R of [a | b]: x takes R's last column at the
    pivot coordinates, and each free coordinate f gives the nullspace vector
    e_f - sum_i R[i, f] e_(pivot i).  Those vectors are echelon only in
    reversed column order, so ``Subspace.from_rows`` canonicalizes them.
    """
    a = as_matrix(a, q)
    b = as_vector(b, q)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} rows vs {b.shape[0]} rhs")
    n = a.shape[1]
    r, rk, piv = rref_mod(np.hstack([a, b.reshape(-1, 1)]), q)
    if rk and piv[rk - 1] == n:
        return None
    x = np.zeros(n, dtype=DTYPE)
    x[piv] = r[:rk, n]
    free = np.setdiff1d(np.arange(n), piv)
    basis = np.zeros((free.size, n), dtype=DTYPE)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-r[:rk, free].T) % q
    return Solution(x, Subspace.from_rows(basis, q, ambient=n))


# ---------------------------------------------------------------------------
# random objects
# ---------------------------------------------------------------------------


def random_matrix(rows: int, cols: int, q: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, q, size=(rows, cols), dtype=DTYPE)


def full_rank_probability(rows: int, cols: int, q: int) -> float:
    """Probability that a uniform rows x cols matrix over F_q has full rank
    min(rows, cols): prod_{i < min} (1 - q^(i - max))."""
    return math.prod(1.0 - float(q) ** (i - max(rows, cols)) for i in range(min(rows, cols)))


def random_full_rank(rows: int, cols: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform matrix conditioned on full rank min(rows, cols), by rejection."""
    target = min(rows, cols)
    while True:
        a = random_matrix(rows, cols, q, rng)
        if rank_mod(a, q) == target:
            return a


def random_full_rank_stack(
    count: int, rows: int, cols: int, q: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` draws of ``random_full_rank(rows, cols, q, rng)`` as a
    (count, rows, cols) stack.  Candidates are drawn and ranked in blocks,
    and the generator is left where the one-at-a-time loop would leave it,
    so the stack is that loop's."""
    out = np.zeros((count, rows, cols), dtype=DTYPE)
    if rows * cols == 0:
        return out
    target = min(rows, cols)
    accept = full_rank_probability(rows, cols, q)
    cap = max(1, _BLOCK_ENTRIES // (rows * cols))
    done = 0
    while done < count:
        need = count - done
        # at least the expected candidate count plus three sigmas
        k = min(math.ceil((need + 3 * math.sqrt(need)) / accept) + 1, cap)
        state = rng.bit_generator.state
        block = rng.integers(0, q, size=(k, rows, cols), dtype=DTYPE)
        used = np.flatnonzero(rank_mod_batch(block, q) == target)[:need]
        if used.size == need:
            # draw again only the candidates the loop would have drawn
            rng.bit_generator.state = state
            rng.integers(0, q, size=(used[-1] + 1, rows, cols), dtype=DTYPE)
        out[done : done + used.size] = block[used]
        done += used.size
    return out


def random_invertible(m: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform element of GL_m(F_q), by rejection on rank."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return random_full_rank(m, m, q, rng)


def random_rank_matrix(l: int, m: int, s: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform l x m matrix over F_q of rank exactly s.

    Sampled as A*B with A uniform full-column-rank l x s and B uniform
    full-row-rank s x m; every rank-s matrix has exactly |GL_s(F_q)| such
    factorizations, so the product is uniform.
    """
    if not 0 <= s <= min(l, m):
        raise ValueError(f"rank s={s} out of range for shape {l}x{m}")
    if s == 0:
        return np.zeros((l, m), dtype=DTYPE)
    a = random_full_rank(l, s, q, rng)
    b = random_full_rank(s, m, q, rng)
    return matmul_mod(a, b, q)


def random_subspace_basis(m: int, d: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Basis (not canonicalized) of a uniformly random d-dim subspace of F_q^m."""
    if not 0 <= d <= m:
        raise ValueError(f"dimension d={d} out of range for ambient {m}")
    if d == 0:
        return np.zeros((0, m), dtype=DTYPE)
    return random_full_rank(d, m, q, rng)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, exactly."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """Linear subspace of F_q^m held as a canonical RREF basis.

    Two subspaces are equal as sets iff their representations are equal.
    """

    __slots__ = ("ambient", "q", "basis")

    def __init__(self, basis: np.ndarray, q: int, ambient: int):
        # trusted constructor: basis must already be canonical RREF, no zero rows
        self.ambient = ambient
        self.q = q
        self.basis = basis
        self.basis.setflags(write=False)

    @classmethod
    def from_rows(cls, rows, q: int, ambient: Optional[int] = None) -> "Subspace":
        """Canonical subspace spanned by the given rows."""
        a = np.asarray(rows, dtype=DTYPE)
        if a.ndim != 2:
            raise ValueError(f"expected 2-D row collection, got shape {a.shape}")
        m = a.shape[1] if ambient is None else ambient
        if a.shape[1] != m:
            raise ValueError(f"rows of width {a.shape[1]} in ambient {m}")
        r, rk, _ = rref_mod(a % q, q)
        return cls(np.ascontiguousarray(r[:rk]), q, m)

    @classmethod
    def zero(cls, m: int, q: int) -> "Subspace":
        return cls(np.zeros((0, m), dtype=DTYPE), q, m)

    @classmethod
    def full(cls, m: int, q: int) -> "Subspace":
        return cls(np.eye(m, dtype=DTYPE), q, m)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray) -> bool:
        return np.array_equal(self.reduce(v), np.zeros(self.ambient, dtype=DTYPE))

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v modulo this subspace (zero iff v is a member).

        The basis is RREF, so row i is the only one nonzero at its pivot and
        the residue is v minus v's pivot coordinates times the basis."""
        v = np.asarray(v, dtype=DTYPE) % self.q
        if self.dim == 0:
            return v
        pivots = np.argmax(self.basis != 0, axis=1)
        return (v - v[pivots] @ self.basis) % self.q

    def add(self, other: "Subspace") -> "Subspace":
        _check_same_space(self, other)
        stacked = np.vstack([self.basis, other.basis])
        return Subspace.from_rows(stacked, self.q, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """C*U for C the RREF coordinates of U & V over U's RREF basis U."""
        _check_same_space(self, other)
        coords = preimage(self.basis, np.zeros(self.ambient, dtype=DTYPE), other.basis, self.q)
        return Subspace(matmul_mod(coords.direction.basis, self.basis, self.q), self.q, self.ambient)

    def transformed(self, h: np.ndarray) -> "Subspace":
        """Right action basis -> basis*h, re-canonicalized."""
        if self.dim == 0:
            return Subspace.zero(self.ambient, self.q)
        return Subspace.from_rows(matmul_mod(self.basis, h, self.q), self.q, self.ambient)

    def enumerate_vectors(self) -> Iterator[np.ndarray]:
        """All q^dim member vectors; intended for small oracle checks."""
        q, d, m = self.q, self.dim, self.ambient
        if q ** d > 1 << 20:
            raise ValueError(f"refusing to enumerate {q}^{d} vectors")
        coeffs = np.zeros(d, dtype=DTYPE)
        for idx in range(q ** d):
            x = idx
            for i in range(d):
                coeffs[i] = x % q
                x //= q
            yield (coeffs @ self.basis) % q if d else np.zeros(m, dtype=DTYPE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.q == other.q
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.q})"


def _check_same_space(u: Subspace, v: Subspace) -> None:
    if u.q != v.q:
        raise ValueError(f"field mismatch: q={u.q} vs q={v.q}")
    if u.ambient != v.ambient:
        raise ValueError(f"ambient mismatch: {u.ambient} vs {v.ambient}")


def row_space(a: np.ndarray, q: int) -> Subspace:
    """Canonical subspace spanned by the rows of ``a``."""
    return Subspace.from_rows(np.asarray(a, dtype=DTYPE), q)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    return u.add(v)


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    return u.intersect(v)


# ---------------------------------------------------------------------------
# affine subspaces
# ---------------------------------------------------------------------------


class AffineSubspace:
    """Coset offset + direction in F_q^m with a canonical coset offset.

    The offset is reduced against the direction basis so its coordinates at
    the direction's pivot columns are zero; set equality is then
    representation equality.
    """

    __slots__ = ("offset", "direction")

    def __init__(self, offset: np.ndarray, direction: Subspace):
        # trusted constructor: offset must already be the canonical coset rep
        self.offset = offset
        self.direction = direction
        self.offset.setflags(write=False)

    @classmethod
    def from_offset(cls, offset, direction: Subspace) -> "AffineSubspace":
        off = np.asarray(offset, dtype=DTYPE) % direction.q
        if off.shape != (direction.ambient,):
            raise ValueError(
                f"offset shape {off.shape} does not match ambient {direction.ambient}"
            )
        return cls(direction.reduce(off), direction)

    @classmethod
    def point(cls, v, q: int) -> "AffineSubspace":
        v = np.asarray(v, dtype=DTYPE) % q
        return cls(v, Subspace.zero(v.shape[0], q))

    @classmethod
    def from_coords(cls, offset: np.ndarray, coords: "AffineSubspace", w: Subspace) -> "AffineSubspace":
        """{offset + c*U : c in coords} for U w's RREF basis and offset reduced
        against w; canonical as it stands, since C*U is RREF when C and U are,
        and offset + c*U is zero at its pivots, offset at U's and c at C's."""
        q, u = w.q, w.basis
        point = (offset + coords.offset @ u) % q
        return cls(point, Subspace(matmul_mod(coords.direction.basis, u, q), q, w.ambient))

    @property
    def q(self) -> int:
        return self.direction.q

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim

    def is_point(self) -> bool:
        return self.direction.dim == 0

    def contains(self, v) -> bool:
        return self.direction.contains((np.asarray(v, dtype=DTYPE) - self.offset) % self.q)

    def image(self, h: np.ndarray) -> "AffineSubspace":
        """Right action x -> x*h for invertible h (detected via dim drop)."""
        q = self.q
        off = matmul_mod(self.offset.reshape(1, -1), h, q)[0]
        direction = self.direction.transformed(h)
        if direction.dim != self.direction.dim:
            raise ValueError("singular transform: direction dimension dropped")
        return AffineSubspace.from_offset(off, direction)

    def add(self, other: "AffineSubspace") -> "AffineSubspace":
        _check_same_space(self.direction, other.direction)
        direction = self.direction.add(other.direction)
        return AffineSubspace.from_offset(
            (self.offset + other.offset) % self.q, direction
        )

    def negate(self) -> "AffineSubspace":
        """{-v : v in set}; the direction is sign-invariant and the canonical
        offset stays canonical (pivot coordinates remain zero)."""
        return AffineSubspace((-self.offset) % self.q, self.direction)

    def intersect(self, other: "AffineSubspace") -> Optional["AffineSubspace"]:
        """Set intersection a + {c*U : c*U in (b - a) + V}; None when the
        cosets are disjoint."""
        _check_same_space(self.direction, other.direction)
        u, v = self.direction, other.direction
        coords = preimage(u.basis, (other.offset - self.offset) % self.q, v.basis, self.q)
        return None if coords is None else AffineSubspace.from_coords(self.offset, coords, u)

    def enumerate_vectors(self) -> Iterator[np.ndarray]:
        for v in self.direction.enumerate_vectors():
            yield (v + self.offset) % self.q

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineSubspace)
            and self.direction == other.direction
            and np.array_equal(self.offset, other.offset)
        )

    def __hash__(self) -> int:
        return hash((self.offset.tobytes(), self.direction))

    def __repr__(self) -> str:
        return f"AffineSubspace(dim={self.dim}, ambient={self.ambient}, q={self.q})"


def preimage(g: np.ndarray, p: np.ndarray, rows: np.ndarray, q: int) -> Optional[AffineSubspace]:
    """{c in F_q^k : c*g in p + span(rows)} for a k x m matrix g, any point p
    and any spanning set rows (zero, repeated, more than m or no rows, as a
    2-D array with entries in [0, q)); None when it is empty.

    One Zassenhaus elimination: row reduce [[g 0 I], [rows 0 0], [-p 1 0]]
    (left m | flag | right k columns).  Its rows with zero left block span
    the (t, c) with c*g in t*p + span(rows), so the set is nonempty iff the
    flag column is a pivot; the flag row then holds a member c and the rows
    below the RREF basis C of the direction, and c is zero at C's pivots.
    """
    return preimage_batch([(g, p, rows)], q)[0]


def preimage_batch(items: list, q: int) -> list:
    """``[preimage(g, p, rows, q) for g, p, rows in items]`` from one
    ``rref_mod_batch`` call; every g has the same width m.

    Each item's block sits in a stack wide and tall enough for the largest
    k and row count: g's rows and the identity fill the top k of k_max rows
    and the first k right columns, ``rows`` the next rows, and the flag row
    comes last.  The zero rows and columns this leaves do not change a
    block's RREF.
    """
    if not items:
        return []
    m = items[0][0].shape[1]
    ks = np.array([g.shape[0] for g, _, _ in items])
    k_max = int(ks.max())
    n_max = max(rows.shape[0] for _, _, rows in items)
    block = np.zeros((len(items), k_max + n_max + 1, m + 1 + k_max), dtype=np.min_scalar_type(q - 1))
    diag = np.arange(k_max)
    block[:, diag, m + 1 + diag] = diag < ks[:, None]
    block[:, -1, m] = 1
    for b, (g, p, rows) in enumerate(items):
        block[b, : g.shape[0], :m] = g
        block[b, k_max : k_max + rows.shape[0], :m] = rows
        block[b, -1, :m] = -p % q
    r, ranks, pivots = rref_mod_batch(block, q)
    out = []
    for b, k in enumerate(ks):
        j = int(np.searchsorted(pivots[b], m))
        if j == ranks[b] or pivots[b, j] != m:
            out.append(None)
            continue
        coords = r[b, j : ranks[b], m + 1 : m + 1 + k].astype(DTYPE)
        out.append(AffineSubspace(coords[0], Subspace(coords[1:], q, int(k))))
    return out


def affine_image(a: AffineSubspace, h: np.ndarray) -> AffineSubspace:
    """Right action of an invertible m x m matrix on an affine subspace."""
    h = as_matrix(h, a.q)
    m = a.ambient
    if h.shape != (m, m):
        raise ValueError(f"transform must be {m}x{m}, got {h.shape}")
    if rank_mod(h, a.q) != m:
        raise ValueError("transform is singular")
    return a.image(h)


def affine_sum(a: AffineSubspace, b: AffineSubspace) -> AffineSubspace:
    return a.add(b)


def affine_intersection(a: AffineSubspace, b: AffineSubspace) -> Optional[AffineSubspace]:
    return a.intersect(b)


# ---------------------------------------------------------------------------
# plain-text matrix format (debugging aid)
# ---------------------------------------------------------------------------


def dump_matrix_text(a: np.ndarray, q: int) -> str:
    """First line "rows cols q", then one space-separated line per row."""
    a = as_matrix(a, q)
    lines = [f"{a.shape[0]} {a.shape[1]} {q}"]
    for row in a:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix_text(text: str):
    """Inverse of dump_matrix_text; returns (matrix, q)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    rows, cols, q = (int(x) for x in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    if rows == 0:
        return np.zeros((0, cols), dtype=DTYPE), q
    data = [[int(x) for x in ln.split()] for ln in lines[1:]]
    a = np.asarray(data, dtype=DTYPE)
    if a.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, found {a.shape}")
    return as_matrix(a, q), q
