"""Exact linear algebra over GF(2), GF(p) for small odd primes, and QQ.

GF(2) matrices are manipulated as rows of Python ints used as bitmasks, so
row elimination is word-parallel XOR; ``gf2_rref`` inserts the rows one at
a time, and the reduced echelon form it returns is unique.  Forward echelon
forms keyed by lowest index grow one vector at a time: ``gf2_reduce`` reduces
a row against one, and ``gfp_insert`` adds a sparse vector to one over GF(p).
Ranks over GF(p) and QQ come from ``sparse_rank``, which ranks sparse
integer vectors mod p with ``gfp_insert`` or by integer Bareiss
elimination; kernel bases and preimages use dense elimination with plain
modular ints / ``fractions.Fraction``.  No floating point appears anywhere.
The dense pivot rule is fixed (scan columns left to right, take the first
remaining row with a nonzero entry), which makes ranks, kernel bases,
preimages and enumeration orders reproducible for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterator

from .errors import CapExceeded, InputError, ShapeError

__all__ = [
    "FieldSpec",
    "GF2",
    "RATIONAL",
    "gfp",
    "parse_field",
    "SparseMatrix",
    "ChainVector",
    "rank",
    "sparse_rank",
    "kernel_basis",
    "in_image",
    "enumerate_kernel_vectors",
    "apply_matrix",
    "DEFAULT_KERNEL_CAP",
]

DEFAULT_KERNEL_CAP = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if p == q:
            return True
        if p % q == 0:
            return False
    # deterministic Miller-Rabin for p < 3_317_044_064_679_887_385_961_981
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field selector: ``gf2``, ``gfp`` (odd prime p) or ``rational``."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("gf2", "gfp", "rational"):
            raise InputError(f"unknown field kind {self.kind!r}")
        if self.kind == "gfp":
            if self.p is None or self.p == 2:
                raise InputError("use GF2 for characteristic 2")
            if self.p >= 1 << 31 or not _is_prime(self.p):
                raise InputError(f"gfp modulus must be an odd prime below 2^31, got {self.p}")
        elif self.p is not None:
            raise InputError("p is only meaningful for gfp")

    @property
    def characteristic(self) -> int:
        if self.kind == "gf2":
            return 2
        if self.kind == "gfp":
            return self.p  # type: ignore[return-value]
        return 0

    def normalize(self, value) -> object:
        """Map an int/Fraction into a canonical nonzero-or-zero field element."""
        if self.kind == "gf2":
            return int(value) & 1
        if self.kind == "gfp":
            return int(value) % self.p  # type: ignore[operator]
        return Fraction(value)

    def __str__(self) -> str:
        if self.kind == "gf2":
            return "gf2"
        if self.kind == "gfp":
            return f"gf{self.p}"
        return "q"


GF2 = FieldSpec("gf2")
RATIONAL = FieldSpec("rational")


def gfp(p: int) -> FieldSpec:
    return FieldSpec("gfp", p)


def parse_field(text: str) -> FieldSpec:
    """Parse a CLI field name: ``gf2``, ``gf<p>`` or ``q``."""
    t = text.strip().lower()
    if t in ("q", "rational", "qq"):
        return RATIONAL
    if t == "gf2":
        return GF2
    if t.startswith("gf") and t[2:].isdigit():
        return gfp(int(t[2:]))
    raise InputError(f"unknown field {text!r} (expected gf2, gf<p> or q)")


class SparseMatrix:
    """A rows x cols matrix in column-major sparse form with labelled axes.

    ``columns[j]`` is a tuple of ``(row_index, value)`` pairs sorted by row,
    with no explicit zeros.  Labels are opaque hashable keys (faces in this
    package) and must be unique per axis.
    """

    __slots__ = ("nrows", "ncols", "row_labels", "col_labels", "columns")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: list[tuple[int, int, object]],
        row_labels: tuple[Hashable, ...] | None = None,
        col_labels: tuple[Hashable, ...] | None = None,
    ):
        if row_labels is None:
            row_labels = tuple(range(nrows))
        if col_labels is None:
            col_labels = tuple(range(ncols))
        if len(row_labels) != nrows or len(set(row_labels)) != nrows:
            raise InputError("row labels must be unique and match nrows")
        if len(col_labels) != ncols or len(set(col_labels)) != ncols:
            raise InputError("column labels must be unique and match ncols")
        cols: list[list[tuple[int, object]]] = [[] for _ in range(ncols)]
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ShapeError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            if v == 0:
                raise InputError("explicit zero entries are not allowed")
            cols[c].append((r, v))
        for col in cols:
            col.sort(key=lambda rv: rv[0])
            if len({r for r, _ in col}) != len(col):
                raise InputError("duplicate entry position")
        self.nrows = nrows
        self.ncols = ncols
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.columns = tuple(tuple(col) for col in cols)

    def row_index(self) -> dict[Hashable, int]:
        return {lab: i for i, lab in enumerate(self.row_labels)}

    def col_index(self) -> dict[Hashable, int]:
        return {lab: i for i, lab in enumerate(self.col_labels)}

    def gf2_rows(self) -> list[int]:
        """Rows as column-indexed bitmasks (entries taken mod 2)."""
        rows = [0] * self.nrows
        for j, col in enumerate(self.columns):
            bit = 1 << j
            for r, v in col:
                if int(v) & 1:
                    rows[r] |= bit
        return rows

    def dense_rows(self, f: FieldSpec) -> list[list[object]]:
        rows = [[f.normalize(0) for _ in range(self.ncols)] for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for r, v in col:
                rows[r][j] = f.normalize(v)
        return rows

    def __repr__(self) -> str:
        nnz = sum(len(col) for col in self.columns)
        return f"SparseMatrix({self.nrows}x{self.ncols}, {nnz} nonzeros)"


class ChainVector:
    """A vector keyed by faces (or any hashable labels) with nonzero entries."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: dict):
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}
        self._hash = hash(frozenset(self.coeffs.items()))

    @property
    def support(self) -> frozenset:
        return frozenset(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def get(self, key, default=0):
        return self.coeffs.get(key, default)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChainVector) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        terms = ", ".join(f"{k!r}: {v}" for k, v in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])))
        return f"ChainVector({{{terms}}})"


# ---------------------------------------------------------------------------
# GF(2) kernels: rows are ints, bit j = coefficient of column j.

def gf2_rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list), by ascending pivot.

    Each row is reduced against the rows kept so far, keyed by their lowest
    bit, and kept under its own lowest bit if anything is left.  Back
    substitution from the highest pivot down then clears every other pivot
    column from each row.
    """
    by_low: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            kept = by_low.get(low)
            if kept is None:
                by_low[low] = row
                break
            row ^= kept
    lows = sorted(by_low)
    pivot_mask = sum(lows)
    for low in reversed(lows):
        row = by_low[low]
        hits = row & pivot_mask ^ low
        while hits:
            high = hits & -hits
            row ^= by_low[high]
            hits ^= high
        by_low[low] = row
    return [by_low[low] for low in lows], [low.bit_length() - 1 for low in lows]


def gf2_reduce(pivots: dict[int, tuple[int, int]], row: int, track: int = 0) -> tuple[int, int]:
    """Reduce ``row`` by ``pivots`` (lowest bit -> (row, tracking mask)); returns ``(row, track)``.

    Each pivot used is XOR-ed into ``row`` and its tracking mask into
    ``track``.  Stops at the first lowest bit with no pivot.
    """
    while row:
        hit = pivots.get(row & -row)
        if hit is None:
            break
        row ^= hit[0]
        track ^= hit[1]
    return row, track


def gf2_kernel_masks(rows: list[int], ncols: int) -> list[int]:
    """Basis of the right null space, one bitmask per free column, ascending."""
    reduced, pivots = gf2_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        fbit = 1 << free
        for row, p in zip(reduced, pivots):
            if row & fbit:
                vec |= 1 << p
        basis.append(vec)
    return basis


def _gf2_solve(rows: list[int], ncols: int, rhs_bits: int) -> int | None:
    """Solve M x = b over GF(2); rows are M's rows, rhs_bits has bit r = b_r.

    Returns a solution bitmask over columns, or None when inconsistent.
    """
    aug = []
    hi = 1 << ncols
    for r, row in enumerate(rows):
        aug.append(row | (hi if rhs_bits >> r & 1 else 0))
    reduced, pivots = gf2_rref(aug)
    x = 0
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        if row & hi:
            x |= 1 << p
    return x


def gf2_span(basis: list[int]) -> Iterator[int]:
    """All nonzero XOR-combinations of basis vectors, Gray-code order."""
    cur = 0
    for k in range(1, 1 << len(basis)):
        cur ^= basis[(k & -k).bit_length() - 1]
        yield cur


# ---------------------------------------------------------------------------
# Dense RREF over GF(p) and the rationals.

def _dense_rref(rows: list[list], f: FieldSpec) -> tuple[list[list], list[int]]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    work = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    p = f.p if f.kind == "gfp" else None
    for col in range(nc):
        pivot = None
        for i in range(r, nr):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], -1, p) if p else Fraction(1) / work[r][col]
        if work[r][col] != 1:
            work[r] = [(v * inv % p if p else v * inv) for v in work[r]]
        for i in range(nr):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                if p:
                    work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[r])]
                else:
                    work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return work[:r], pivots


def _dense_kernel(rows: list[list], ncols: int, f: FieldSpec) -> list[dict[int, object]]:
    reduced, pivots = _dense_rref(rows, f)
    pivot_set = set(pivots)
    p = f.p if f.kind == "gfp" else None
    basis = []
    one = f.normalize(1)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: dict[int, object] = {free: one}
        for row, piv in zip(reduced, pivots):
            v = row[free]
            if v != 0:
                vec[piv] = (-v) % p if p else -v
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Public operations.

def _int_rank_bareiss(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    work = [row[:] for row in rows]
    prev = 1
    r = 0
    for col in range(nc):
        pivot = None
        for i in range(r, nr):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        for i in range(r + 1, nr):
            factor = work[i][col]
            row_i = work[i]
            row_r = work[r]
            for j in range(col, nc):
                row_i[j] = (row_i[j] * lead - factor * row_r[j]) // prev
        prev = lead
        r += 1
        if r == nr:
            break
    return r


def sparse_rank(vectors: list[tuple[tuple[int, int], ...]], p: int | None = None) -> int:
    """Rank of integer vectors given as ``(index, value)`` pairs with distinct indices.

    With a prime ``p`` the rank is taken over GF(p), by elimination on the
    lowest index of each vector; with ``p=None`` it is exact over QQ, by
    Bareiss elimination on the dense integer rows.
    """
    if p is None:
        index: dict[int, int] = {}
        for vec in vectors:
            for i, _ in vec:
                index.setdefault(i, len(index))
        dense = []
        for vec in vectors:
            row = [0] * len(index)
            for i, x in vec:
                row[index[i]] = x
            dense.append(row)
        return _int_rank_bareiss(dense)
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        gfp_insert(pivots, vec, p)
    return len(pivots)


def gfp_insert(pivots: dict[int, dict[int, int]], vec: tuple[tuple[int, int], ...], p: int) -> int | None:
    """Add ``vec`` to a forward echelon form over GF(p); returns its new pivot index, or None if dependent.

    ``pivots`` maps each pivot's lowest index to its row, scaled to lead 1.
    Rows already kept are never changed, so deleting the latest pivots
    restores the echelon form of the vectors added before them.
    """
    v = {i: x % p for i, x in vec if x % p}
    while v:
        lead = min(v)
        row = pivots.get(lead)
        if row is None:
            inv = pow(v[lead], -1, p)
            pivots[lead] = {i: x * inv % p for i, x in v.items()}
            return lead
        c = v[lead]
        for i, x in row.items():
            y = (v.get(i, 0) - c * x) % p
            if y:
                v[i] = y
            else:  # only an index already in v can cancel
                del v[i]
    return None


def rank(m: SparseMatrix, f: FieldSpec) -> int:
    """Matrix rank over ``f``; deterministic for a fixed input."""
    if f.kind == "gf2":
        _, pivots = gf2_rref(m.gf2_rows())
        return len(pivots)
    if f.kind == "gfp":
        return sparse_rank(m.columns, f.p)
    # scaling a column by the lcm of its denominators clears them and keeps the rank
    columns = []
    for col in m.columns:
        scale = math.lcm(*(v.denominator for _, v in col))
        columns.append(tuple((r, int(v * scale)) for r, v in col))
    return sparse_rank(columns)


def kernel_basis(m: SparseMatrix, f: FieldSpec) -> list[ChainVector]:
    """Basis of the right null space, keyed by column labels.

    Always has exactly ``cols - rank`` members, emitted in ascending free
    column order.
    """
    if f.kind == "gf2":
        masks = gf2_kernel_masks(m.gf2_rows(), m.ncols)
        return [
            ChainVector({m.col_labels[j]: 1 for j in range(m.ncols) if mask >> j & 1})
            for mask in masks
        ]
    if m.ncols == 0:
        return []
    rows = m.dense_rows(f) if m.nrows else []
    vecs = _dense_kernel(rows, m.ncols, f) if rows else [{j: f.normalize(1)} for j in range(m.ncols)]
    return [ChainVector({m.col_labels[j]: v for j, v in vec.items()}) for vec in vecs]


def apply_matrix(m: SparseMatrix, v: ChainVector, f: FieldSpec) -> ChainVector:
    """Compute M v for a column-keyed vector, returning a row-keyed vector."""
    cindex = m.col_index()
    out: dict[int, object] = {}
    for key, coeff in v.coeffs.items():
        j = cindex.get(key)
        if j is None:
            raise ShapeError(f"vector key {key!r} is not a column label")
        for r, val in m.columns[j]:
            out[r] = out.get(r, 0) + coeff * val
    if f.kind == "gf2":
        result = {m.row_labels[r]: 1 for r, v2 in out.items() if int(v2) & 1}
    elif f.kind == "gfp":
        result = {m.row_labels[r]: v2 % f.p for r, v2 in out.items() if v2 % f.p}
    else:
        result = {m.row_labels[r]: Fraction(v2) for r, v2 in out.items() if v2 != 0}
    return ChainVector(result)


def in_image(m: SparseMatrix, v: ChainVector, f: FieldSpec) -> ChainVector | None:
    """A preimage of ``v`` under ``m`` when one exists, else None.

    ``v`` must be keyed by row labels of ``m``.  Any returned preimage is
    re-multiplied through ``m`` and checked against ``v`` before returning.
    """
    rindex = m.row_index()
    for key in v.coeffs:
        if key not in rindex:
            raise ShapeError(f"vector key {key!r} is not a row label")
    if v.is_zero:
        return ChainVector({})
    if f.kind == "gf2":
        rhs = 0
        for key, coeff in v.coeffs.items():
            if int(coeff) & 1:
                rhs |= 1 << rindex[key]
        x = _gf2_solve(m.gf2_rows(), m.ncols, rhs)
        if x is None:
            return None
        pre = ChainVector({m.col_labels[j]: 1 for j in range(m.ncols) if x >> j & 1})
    else:
        if m.ncols == 0:
            return None
        rows = m.dense_rows(f)
        target = [f.normalize(0)] * m.nrows
        for key, coeff in v.coeffs.items():
            target[rindex[key]] = f.normalize(coeff)
        aug = [row + [t] for row, t in zip(rows, target)]
        reduced, pivots = _dense_rref(aug, f)
        x_dense: dict[int, object] = {}
        for row, p in zip(reduced, pivots):
            if p == m.ncols:
                return None
            if row[-1] != 0:
                x_dense[p] = row[-1]
        pre = ChainVector({m.col_labels[j]: val for j, val in x_dense.items()})
    if apply_matrix(m, pre, f) != ChainVector({k: f.normalize(c) for k, c in v.coeffs.items()}):
        raise AssertionError("preimage verification failed")
    return pre


def enumerate_kernel_vectors(m: SparseMatrix, cap: int = DEFAULT_KERNEL_CAP) -> Iterator[ChainVector]:
    """All nonzero GF(2) kernel vectors, zero excluded, deterministic order.

    Refuses eagerly with ``CapExceeded`` when 2^nullity exceeds ``cap``.
    """
    basis = gf2_kernel_masks(m.gf2_rows(), m.ncols)
    if (1 << len(basis)) > cap:
        raise CapExceeded(
            f"kernel has 2^{len(basis)} vectors, above cap {cap}",
            needed=1 << len(basis),
            cap=cap,
        )
    labels = m.col_labels
    ncols = m.ncols

    def _gen() -> Iterator[ChainVector]:
        for mask in gf2_span(basis):
            yield ChainVector({labels[j]: 1 for j in range(ncols) if mask >> j & 1})

    return _gen()
