"""Exact row reduction and rank certificates over Z/p.

Two elimination backends sit behind rref(), chosen by modulus size:

  p <= 2^23        blocked float64 Gauss-Jordan; BLAS does the trailing
                   updates.  Exact because every intermediate is an
                   integer of magnitude below 2^53 (products < (p-1)^2 <
                   2^46; GEMM inner dimension and panel width capped so
                   accumulated sums and delayed reductions stay below
                   2^53).
  2^23 < p < 2^63  Gauss-Jordan by row insertion on a uint64 block of pivot
                   rows, vectorized with numpy.  Products use Shoup's
                   precomputed-quotient multiplication: its remainder before
                   the one correction lies in [0, 2p), which fits in 64 bits
                   exactly when p < 2^63.  Column sums are split at bit 31 so
                   they cannot wrap, and are reduced once.  Rows stop being
                   read once the rank reaches the matrix's rank bound (its
                   column count unless the caller proved a smaller one).

Both read rows only as numpy CSR arrays, through FieldMatrix.csr, and both
produce the same object: the reduced row echelon form, which is unique, so
pivot columns and quotient coordinates do not depend on the backend or on
row order.  It is kept as one rank x free-columns int64 block, and blocks
are multiplied by one exact product per tier (matmul_modp).
dense_rank_oracle() is a deliberately separate textbook elimination used
only to cross-check ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

FLOAT_TIER_MAX = 1 << 23
INT64_TIER_MAX = 1 << 31
ORACLE_CELL_LIMIT = 10 ** 7
ENGINE_BYTES_LIMIT = 1 << 30  # largest array footprint either engine allocates
_COMPACT_EVERY = 16
_CHUNK = 8192  # elements per numpy temporary in the row-insertion engine
_ROWS_PER_READ = 32  # rows per FieldMatrix.csr call when streaming rows
_PANEL = 64


class SizeGuardExceeded(Exception):
    pass


class MatrixFormatError(Exception):
    pass


class RowArrays:
    """Rows that are held, or built on demand, as numpy CSR arrays.
    Subclasses define __len__ and csr(); iterating yields dict rows."""

    def __len__(self) -> int:
        raise NotImplementedError

    def csr(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows lo..hi-1 as (indptr starting at 0, intp columns, int64
        values in [0, p))."""
        raise NotImplementedError

    def __iter__(self):
        for cols, vals in _row_arrays(self.csr, len(self)):
            yield dict(zip(cols.tolist(), vals.tolist()))


def _row_arrays(csr, nrows: int):
    """(columns, values) of each row in order, read through csr(lo, hi) a
    block of rows at a time, so rows built on demand are never all in
    memory."""
    for lo in range(0, nrows, _ROWS_PER_READ):
        indptr, cols, vals = csr(lo, min(lo + _ROWS_PER_READ, nrows))
        ip = indptr.tolist()
        for s, e in zip(ip, ip[1:]):
            yield cols[s:e], vals[s:e]


class CsrRows(RowArrays):
    """Rows stored whole as CSR arrays."""

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.indptr, self.cols, self.vals = indptr, cols, vals

    @classmethod
    def from_dicts(cls, rows: Iterable[dict[int, int]], p: int) -> CsrRows:
        lens, cols, vals = [0], [], []
        for r in rows:
            lens.append(len(r))
            cols.extend(r)
            vals.extend(r.values())
        return cls(np.cumsum(lens), np.array(cols, dtype=np.intp),
                   np.array(vals, dtype=np.int64) % p)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> CsrRows:
        """The nonzeros of a 2-D int64 array with entries in [0, p)."""
        i, j = np.nonzero(a)
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(a, axis=1), out=indptr[1:])
        return cls(indptr, j, a[i, j])

    def __len__(self) -> int:
        return self.indptr.size - 1

    def csr(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ip = self.indptr[lo:hi + 1]
        s, e = int(ip[0]), int(ip[-1])
        return ip - s, self.cols[s:e], self.vals[s:e]


@dataclass
class FieldMatrix:
    """Sparse rows over Z/p: each row maps column index to a value in [1, p).
    rows may be any collection of nrows rows that can be iterated more than
    once, such as one that builds them on the fly; a RowArrays also hands
    the engines its rows as numpy arrays directly.

    rank_bound, when given, must be a proven upper bound on the rank: an
    engine may stop reading rows once it reaches it.  rows_read counts the
    leading rows handed out through csr()."""

    p: int
    nrows: int
    ncols: int
    rows: Iterable[dict[int, int]]
    rank_bound: Optional[int] = None
    rows_read: int = field(default=0, init=False, compare=False)
    _arrays: Optional[RowArrays] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, p: int, ncols: int, rows: Iterable[dict[int, int]]) -> FieldMatrix:
        clean = []
        for r in rows:
            row = {}
            for j, v in r.items():
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} out of range for ncols={ncols}")
                v %= p
                if v:
                    row[j] = v
            clean.append(row)
        return cls(p, len(clean), ncols, clean)

    @classmethod
    def from_dense(cls, p: int, entries: Sequence[Sequence[int]], ncols: int | None = None) -> FieldMatrix:
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        rows = [{j: v for j, v in enumerate(r)} for r in entries]
        return cls.from_rows(p, ncols, rows)

    @classmethod
    def from_array(cls, p: int, a: np.ndarray) -> FieldMatrix:
        """The matrix of a 2-D int64 array with entries in [0, p)."""
        return cls(p, a.shape[0], a.shape[1], CsrRows.from_dense(a))

    def csr(self, lo: int = 0,
            hi: Optional[int] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows lo..hi-1 (all by default) as numpy CSR arrays: indptr
        starting at 0, intp column indices, int64 values in [0, p).  The
        one way the engines read rows; dict rows are converted on the first
        call and the arrays kept."""
        if self._arrays is None:
            self._arrays = (self.rows if isinstance(self.rows, RowArrays)
                            else CsrRows.from_dicts(self.rows, self.p))
        hi = self.nrows if hi is None else hi
        self.rows_read = max(self.rows_read, hi)
        return self._arrays.csr(lo, hi)

    def transpose(self) -> FieldMatrix:
        cols: list[dict[int, int]] = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                cols[j][i] = v
        return FieldMatrix(self.p, self.ncols, self.nrows, cols)

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        """The nrows x ncols array of entries in [0, p)."""
        indptr, cols, vals = self.csr()
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        out[np.repeat(np.arange(self.nrows), np.diff(indptr)), cols] = vals
        return out

    def mul_vector(self, v: Sequence[int]) -> list[int]:
        p = self.p
        return [sum(c * v[j] for j, c in r.items()) % p for r in self.rows]


class EchelonResult:
    """Reduced row echelon form: pivot columns plus the normalized rows.

    The pivot columns of a reduced echelon form hold the identity, so only
    the rows' entries at the free columns are kept, as a rank x free-columns
    int64 block with entries in [0, p), rows in pivot order."""

    def __init__(self, p: int, ncols: int, pivots: tuple[int, ...], block: np.ndarray):
        self.p = p
        self.ncols = ncols
        self.pivots = pivots
        pivset = set(pivots)
        self._free = tuple(j for j in range(ncols) if j not in pivset)
        self._block = block

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> tuple[int, ...]:
        return self._free

    def row_as_dict(self, k: int) -> dict[int, int]:
        r = self._block[k]
        out = {self.pivots[k]: 1}
        out.update((self._free[j], int(r[j])) for j in np.nonzero(r)[0])
        return out

    def free_block(self) -> np.ndarray:
        """The rows' entries at the free columns, as a rank x free-columns
        int64 array."""
        return self._block

    def normal_forms(self) -> np.ndarray:
        """The ncols x free-columns int64 array whose row j is the normal
        form of unit vector j modulo the row space, in the basis of the free
        columns: a unit vector at a free column, minus the row's free
        entries at a pivot."""
        out = np.zeros((self.ncols, len(self._free)), dtype=np.int64)
        out[list(self._free), np.arange(len(self._free))] = 1
        out[list(self.pivots)] = -self._block % self.p
        return out

    def reduce_vector(self, vec: Sequence[int]) -> list[int]:
        """Normal form of vec modulo the row space; zero on pivot columns."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        out = np.array([[int(x) % self.p for x in vec]], dtype=np.int64)
        return [int(x) for x in self.reduce_block(out)[0]]

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Row-wise reduce_vector for an int64 array of shape (m, ncols)."""
        p = self.p
        if block.shape[1] != self.ncols:
            raise ValueError("block width does not match column count")
        v = block % p
        out = np.zeros_like(v)
        free = list(self._free)
        if free:
            red = matmul_modp(v[:, list(self.pivots)], self._block, p)
            out[:, free] = (v[:, free] - red) % p
        return out


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays with entries in [0, p): in
    float64 for p <= FLOAT_TIER_MAX, in _Zp64 arithmetic above."""
    if p <= FLOAT_TIER_MAX:
        return _matmul_modp(a.astype(np.float64), b.astype(np.float64), p).astype(np.int64)
    return _Zp64(p).matmul(a.view(np.uint64), b.view(np.uint64)).view(np.int64)


def _matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for float64 arrays with entries in [0, p), p <= 2^23."""
    k = a.shape[1]
    cap = (1 << 53) // ((p - 1) * (p - 1)) if p > 1 else k
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]))
    if k <= cap:
        return np.mod(a @ b, p)
    acc = np.zeros((a.shape[0], b.shape[1]))
    for s in range(0, k, cap):
        acc += np.mod(a[:, s:s + cap] @ b[s:s + cap], p)
    return np.mod(acc, p)


def _inv_modp_dense(b: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible m x m float64 matrix over Z/p by Gauss-Jordan.

    Reductions are delayed as in _panel_discovery: a step reduces only the
    scanned column and the pivot row, and leaves its outer-product update
    unreduced.  An entry then carries at most m-1 unreduced updates, each
    below (p-1)^2, on top of a value below p, so every entry stays below
    p + m(p-1)^2 in magnitude.  The caller keeps m <= panel_cap, which
    bounds that by 2^53, so every float64 value is an exact integer; one
    np.mod at the end gives the residues.  Columns left of the scanned one
    are never read again and are not updated."""
    m = b.shape[0]
    aug = np.concatenate([np.mod(b, p), np.eye(m)], axis=1)
    for j in range(m):
        colv = np.mod(aug[:, j], p)
        t = j + int(np.flatnonzero(colv[j:])[0])
        if t != j:
            aug[[j, t]] = aug[[t, j]]
            colv[[j, t]] = colv[[t, j]]
        inv = pow(int(colv[j]), p - 2, p)
        aug[j, j:] = np.mod(np.mod(aug[j, j:], p) * inv, p)
        colv[j] = 0
        aug[:, j:] -= colv[:, None] * aug[j, j:]
    return np.mod(aug[:, m:], p)


def _panel_discovery(panel: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Forward elimination on a scratch panel; returns the panel-relative
    pivot columns and the row permutation (pivot rows first, in order).

    Reductions are deferred: rows accumulate unreduced values and only the
    scanned column is taken mod p, which keeps every entry in the panel
    below (p-1) + bw*(p-1)^2 <= 2^53 in magnitude (bw is capped for that)."""
    m, bw = panel.shape
    ids = np.arange(m)
    pos = 0
    lc: list[int] = []
    for j in range(bw):
        if pos == m:
            break
        colv = np.mod(panel[pos:, j], p)
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        t = int(nz[0])
        if t != 0:
            panel[[pos, pos + t]] = panel[[pos + t, pos]]
            ids[[pos, pos + t]] = ids[[pos + t, pos]]
            colv[[0, t]] = colv[[t, 0]]
        inv = pow(int(colv[0]), p - 2, p)
        pivrow = np.mod(np.mod(panel[pos, j + 1:], p) * inv, p)
        if pos + 1 < m:
            panel[pos + 1:, j + 1:] -= np.outer(colv[1:], pivrow)
        lc.append(j)
        pos += 1
    return lc, ids


def _rref_float_blocked(mat: FieldMatrix) -> EchelonResult:
    """Left-looking blocked Gauss-Jordan in exact float64 arithmetic.

    Relies on the identity-on-pivot-columns shape of the reduced echelon
    form: the current value of any unreduced row is orig - orig[pivcols] @ R,
    so panels are brought up to date with one GEMM and only the (rank x c)
    array of reduced rows is ever updated in place.

    Refuses with SizeGuardExceeded, before allocating, a matrix whose dense
    copy, reduced-row buffer and gathered pivot columns (r x c, rank x c
    and r x rank float64 arrays) would exceed ENGINE_BYTES_LIMIT."""
    p = mat.p
    r, c = mat.nrows, mat.ncols
    maxrank = min(r, c)
    need = 8 * (r * c + maxrank * c + r * maxrank)
    if need > ENGINE_BYTES_LIMIT:
        raise SizeGuardExceeded(
            f"float tier needs {need} bytes for {r}x{c}, over the "
            f"{ENGINE_BYTES_LIMIT} limit")
    orig = mat.to_dense(np.float64)
    rbuf = np.zeros((maxrank, c))
    pivots: list[int] = []
    npiv = 0
    live = np.arange(r)
    panel_cap = max(1, min(_PANEL, ((1 << 53) - p) // ((p - 1) * (p - 1))))
    col = 0
    while col < c and live.size:
        hi = min(col + panel_cap, c)
        pc = np.array(pivots, dtype=np.intp)
        panel = orig[live, col:hi]
        if npiv:
            panel = np.mod(panel - _matmul_modp(orig[np.ix_(live, pc)], rbuf[:npiv, col:hi], p), p)
        lc, ids = _panel_discovery(panel, p)
        b = len(lc)
        if b:
            newrows = live[ids[:b]]
            newcols = [col + j for j in lc]
            cur = orig[newrows, col:]
            if npiv:
                cur = np.mod(cur - _matmul_modp(orig[np.ix_(newrows, pc)], rbuf[:npiv, col:], p), p)
            bpp = cur[:, [j - col for j in newcols]]
            u = _inv_modp_dense(bpp, p)
            newr = _matmul_modp(u, cur, p)
            if npiv:
                g = rbuf[:npiv, newcols]
                rbuf[:npiv, col:] = np.mod(rbuf[:npiv, col:] - _matmul_modp(g, newr, p), p)
            rbuf[npiv:npiv + b, col:] = newr
            pivots.extend(newcols)
            npiv += b
            live = live[np.sort(ids[b:])]
        col = hi
    if live.size:
        # every undrafted row must reduce to zero against the final rows
        residue = orig[live]
        if npiv:
            pc = np.array(pivots, dtype=np.intp)
            residue = np.mod(residue - _matmul_modp(orig[np.ix_(live, pc)], rbuf[:npiv], p), p)
        if np.any(residue):
            raise AssertionError("nonzero residue after elimination; arithmetic bug")
    return EchelonResult(p, c, tuple(pivots),
                         np.delete(rbuf[:npiv], pivots, axis=1).astype(np.int64))


_M32 = np.uint64(0xFFFFFFFF)
_M31 = np.uint64(0x7FFFFFFF)
_S32 = np.uint64(32)
_S31 = np.uint64(31)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a*b of uint64 arrays, from
    32-bit halves.  No partial sum can wrap: a product of halves is at most
    (2^32-1)^2 = 2^64 - 2^33 + 1, so one 32-bit carry still fits."""
    a0, a1 = a & _M32, a >> _S32
    b0, b1 = b & _M32, b >> _S32
    t = a1 * b0 + ((a0 * b0) >> _S32)
    u = a0 * b1 + (t & _M32)
    return a1 * b1 + (t >> _S32) + (u >> _S32)


class _Zp64:
    """Exact arithmetic mod p < 2^63 on uint64 arrays.

    Products use Shoup's precomputed quotient: for w < p and
    w' = floor(w 2^64 / p), any a < 2^64 gives q = mulhi(a, w') within one
    of floor(a w / p), so r = a w - q p, computed mod 2^64, lies in [0, 2p)
    and one conditional subtraction of p makes it exact.  2p < 2^64 is what
    needs p < 2^63."""

    def __init__(self, p: int):
        if p >= 1 << 63:
            raise ValueError(f"modulus {p} is not below 2^63")
        self.p = np.uint64(p)
        # w' = w*floor(2^64/p) + floor(w*(2^64 mod p)/p); the second term is
        # itself a Shoup product by the constant 2^64 mod p
        self._c = np.uint64((1 << 64) // p)
        r0 = (1 << 64) % p
        self._r0 = np.uint64(r0)
        self._r0pre = np.uint64((r0 << 64) // p)
        self._two31 = np.uint64((1 << 31) % p)
        self._two31pre = np.uint64((((1 << 31) % p) << 64) // p)

    def pre(self, w: np.ndarray) -> np.ndarray:
        """Shoup quotients floor(w 2^64 / p) for entries w < p."""
        q = _mulhi(w, self._r0pre)
        r = w * self._r0 - q * self.p
        q += r >= self.p
        return w * self._c + q

    def mul(self, a: np.ndarray, w: np.ndarray, wpre: np.ndarray) -> np.ndarray:
        """a*w mod p for any uint64 a and w < p with wpre = pre(w)."""
        r = a * w - _mulhi(a, wpre) * self.p
        return np.minimum(r, r - self.p)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s = x + y
        return np.minimum(s, s - self.p)

    def colsum(self, terms: np.ndarray) -> np.ndarray:
        """Column sums mod p of a (k, w) array with entries < p.  Each
        entry is split at bit 31 and both halves are summed exactly, so one
        reduction per column replaces k modular additions."""
        lo = (terms & _M31).sum(axis=0, dtype=np.uint64)
        hi = (terms >> _S31).sum(axis=0, dtype=np.uint64)
        return self._recombine(lo, hi)

    def _recombine(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(hi 2^31 + lo) mod p for any uint64 lo and hi."""
        return self.add(self.mul(hi, self._two31, self._two31pre), lo % self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a @ b) mod p for uint64 arrays with entries < p.  Each column of
        a is multiplied into the matching row of b with Shoup's product
        (b's quotients are computed once), and the terms are summed in
        halves split at bit 31 as in colsum: a half is below 2^32, so sums
        of fewer than 2^32 terms cannot wrap.  Inner indices are taken a
        chunk at a time, keeping temporaries near _CHUNK elements."""
        m, k = a.shape
        w = b.shape[1]
        bpre = self.pre(b)
        lo = np.zeros((m, w), dtype=np.uint64)
        hi = np.zeros((m, w), dtype=np.uint64)
        step = max(1, _CHUNK // max(1, m * w))
        for s in range(0, k, step):
            t = self.mul(a[:, s:s + step, None], b[None, s:s + step], bpre[None, s:s + step])
            lo += (t & _M31).sum(axis=1, dtype=np.uint64)
            hi += (t >> _S31).sum(axis=1, dtype=np.uint64)
        return self._recombine(lo, hi)


def _block_cells(maxrank: int, ncols: int) -> int:
    """Most uint64 cells the row-insertion block can hold at once.  With t
    pivot rows stored the width is at most ncols - t + _COMPACT_EVERY (free
    columns plus pivot columns not yet compacted away), and t rises to at
    most maxrank; t times that width peaks at t = (ncols + _COMPACT_EVERY)
    / 2."""
    def cells(t: int) -> int:
        return t * min(ncols, ncols + _COMPACT_EVERY - t)

    t = min(maxrank, (ncols + _COMPACT_EVERY) // 2)
    return max(cells(t), cells(min(maxrank, t + 1)))


def _rref_rowinsert(mat: FieldMatrix) -> EchelonResult:
    """Gauss-Jordan by row insertion for FLOAT_TIER_MAX < p < 2^63.

    Each incoming row is reduced in one pass against the fully reduced
    pivot rows (eliminating one pivot column never disturbs another),
    normalized, and back-substituted into the pivot rows; both steps are
    outer products in _Zp64 arithmetic.  The pivot rows live in one uint64
    block preallocated at its largest size, whose columns are the free
    columns plus the pivot columns found since the last compaction; on
    those the block holds the identity, so one subtraction clears them.
    Rows stop being read once the rank reaches the matrix's rank bound (at
    most ncols): the pivot rows then span the whole row space, so every
    later row lies in their span."""
    p, c = mat.p, mat.ncols
    maxrank = min(mat.nrows, c if mat.rank_bound is None else mat.rank_bound)
    cells = _block_cells(maxrank, c)
    if cells * 8 > ENGINE_BYTES_LIMIT:
        raise SizeGuardExceeded(
            f"row-insertion block needs {cells * 8} bytes for "
            f"{mat.nrows}x{c}, over the {ENGINE_BYTES_LIMIT} limit")
    zp = _Zp64(p)
    buf = np.empty(cells, dtype=np.uint64)
    frame = np.arange(c)                # block column -> matrix column
    pos = np.arange(c)                  # matrix column -> block column, or -1
    rowof = np.full(c, -1, dtype=np.intp)  # pivot column -> block row, or -1
    pivcols: list[int] = []
    r, w = 0, c
    for cols, vals in _row_arrays(mat.csr, mat.nrows):
        if not cols.size:
            continue
        vals = vals.view(np.uint64)
        x = np.zeros(w, dtype=np.uint64)
        at = pos[cols]
        inframe = at >= 0
        x[at[inframe]] = vals[inframe]
        ks = rowof[cols]
        hit = (ks >= 0) & (vals != 0)
        if hit.any():
            _reduce_into(zp, buf[:r * w].reshape(r, w), ks[hit], vals[hit], x)
        nz = np.flatnonzero(x)
        if not nz.size:
            continue
        inv = pow(int(x[nz[0]]), p - 2, p)
        v = zp.mul(x[nz], np.uint64(inv), np.uint64((inv << 64) // p))
        if r:
            _backsubstitute(zp, buf[:r * w].reshape(r, w), nz, v)
        row = buf[r * w:(r + 1) * w]
        row[:] = 0
        row[nz] = v
        lead = int(frame[nz[0]])
        rowof[lead] = r
        pivcols.append(lead)
        r += 1
        if r == maxrank:
            break
        if r % _COMPACT_EVERY == 0:
            frame, w = _compact(buf, r, w, frame, rowof)
            pos[:] = -1
            pos[frame] = np.arange(w)
    # after the last compaction the block's columns are the free columns,
    # in order; its rows are put in pivot order
    _, w = _compact(buf, r, w, frame, rowof)
    block = buf[:r * w].reshape(r, w)[np.argsort(pivcols)]
    return EchelonResult(p, c, tuple(sorted(pivcols)), block.view(np.int64))


def _reduce_into(zp: _Zp64, block: np.ndarray, ks: np.ndarray, f: np.ndarray,
                 x: np.ndarray) -> None:
    """x -= f @ block[ks] mod p, touching only columns where block[ks] is
    nonzero."""
    negf = (zp.p - f)[:, None]
    negpre = zp.pre(negf)
    step = max(1, _CHUNK // len(ks))
    for a in range(0, block.shape[1], step):
        sub = block[ks, a:a + step]
        nzc = np.flatnonzero(sub.any(axis=0))
        if nzc.size:
            t = zp.mul(sub[:, nzc], negf, negpre)
            at = nzc + a
            x[at] = zp.add(x[at], zp.colsum(t))


def _backsubstitute(zp: _Zp64, block: np.ndarray, nz: np.ndarray, v: np.ndarray) -> None:
    """Clear column nz[0] of every pivot row with the new normalized row
    whose nonzeros are v at block columns nz: block -= g (x) v."""
    g = block[:, nz[0]]
    rows = np.flatnonzero(g)
    if not rows.size:
        return
    negv = zp.p - v
    negpre = zp.pre(negv)
    step = max(1, _CHUNK // nz.size)
    for a in range(0, rows.size, step):
        ix = np.ix_(rows[a:a + step], nz)
        block[ix] = zp.add(block[ix], zp.mul(g[rows[a:a + step], None], negv, negpre))


def _compact(buf: np.ndarray, r: int, w: int, frame: np.ndarray,
             rowof: np.ndarray) -> tuple[np.ndarray, int]:
    """Drop the pivot columns from the r x w block in buf, in place, a few
    rows at a time; returns the new frame and width."""
    keep = np.flatnonzero(rowof[frame] < 0)
    w2 = keep.size
    if w2 == w:
        return frame, w
    step = max(1, _CHUNK // w)
    # row i moves from offset i*w to i*w2 <= i*w, so a chunk never
    # overwrites rows that later chunks still have to read
    for a in range(0, r, step):
        b = min(r, a + step)
        buf[a * w2:b * w2] = buf[a * w:b * w].reshape(b - a, w)[:, keep].ravel()
    return frame[keep], w2


def rref(mat: FieldMatrix) -> EchelonResult:
    if mat.nrows == 0 or mat.ncols == 0 or mat.rank_bound == 0:
        return EchelonResult(mat.p, mat.ncols, (), np.zeros((0, mat.ncols), dtype=np.int64))
    if mat.p <= FLOAT_TIER_MAX:
        return _rref_float_blocked(mat)
    return _rref_rowinsert(mat)


def kernel_witness(mat: FieldMatrix, ech: EchelonResult | None = None) -> Optional[list[int]]:
    """A verified nonzero kernel vector, or None when columns are independent.

    Uses the leftmost free column, so the witness is deterministic."""
    if ech is None:
        ech = rref(mat)
    if ech.rank == mat.ncols:
        return None
    p = mat.p
    free = ech.free_columns()[0]
    v = [0] * mat.ncols
    v[free] = 1
    for k, c in enumerate(ech.pivots):
        if c > free:
            break
        entry = ech.row_as_dict(k).get(free, 0)
        if entry:
            v[c] = (-entry) % p
    if any(x % p for x in mat.mul_vector(v)):
        raise AssertionError("kernel witness failed exact verification")
    return v


def dense_rank_oracle(mat: FieldMatrix) -> int:
    """Independent rank check: plain forward elimination, no blocking.

    Kept deliberately separate from rref(); used to cross-validate it."""
    if mat.nrows * mat.ncols > ORACLE_CELL_LIMIT:
        raise SizeGuardExceeded(
            f"oracle limited to {ORACLE_CELL_LIMIT} cells, got {mat.nrows}x{mat.ncols}")
    p = mat.p
    if mat.nrows == 0 or mat.ncols == 0:
        return 0
    if p < INT64_TIER_MAX:
        w = mat.to_dense()
        r, c = w.shape
        # when accumulated updates cannot overflow int64, defer all mods and
        # reduce only the scanned column and the pivot row
        deferred = (min(r, c) + 1) * (p - 1) * (p - 1) + p < (1 << 63)
        rk = 0
        for j in range(c):
            if rk >= r:
                break
            colv = w[rk:, j] % p
            nz = np.nonzero(colv)[0]
            if nz.size == 0:
                continue
            t = int(nz[0])
            if t != 0:
                w[[rk, rk + t]] = w[[rk + t, rk]]
                colv[[0, t]] = colv[[t, 0]]
            inv = pow(int(colv[0]), p - 2, p)
            piv = (w[rk, j + 1:] % p) * inv % p
            if rk + 1 < r:
                upd = np.outer(colv[1:], piv)
                if deferred:
                    w[rk + 1:, j + 1:] -= upd
                else:
                    w[rk + 1:, j + 1:] = (w[rk + 1:, j + 1:] - upd) % p
            rk += 1
        return rk
    rows = [[r.get(j, 0) for j in range(mat.ncols)] for r in mat.rows]
    rk = 0
    for j in range(mat.ncols):
        if rk >= len(rows):
            break
        t = next((i for i in range(rk, len(rows)) if rows[i][j] % p), None)
        if t is None:
            continue
        rows[rk], rows[t] = rows[t], rows[rk]
        inv = pow(rows[rk][j], p - 2, p)
        piv = [v * inv % p for v in rows[rk]]
        rows[rk] = piv
        for i in range(rk + 1, len(rows)):
            f = rows[i][j] % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], piv)]
        rk += 1
    return rk


# --- text dump format -----------------------------------------------------
#
# line 1:  nrows ncols modulus
# then one "row col value" triple per nonzero entry, row-major, 0-indexed

def dump_matrix(mat: FieldMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{mat.nrows} {mat.ncols} {mat.p}\n")
        for i, r in enumerate(mat.rows):
            for j in sorted(r):
                fh.write(f"{i} {j} {r[j]}\n")


def load_matrix(path) -> FieldMatrix:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise MatrixFormatError(f"header must be 'nrows ncols modulus', got {lines[0]!r}")
    try:
        nrows, ncols, p = (int(x) for x in head)
    except ValueError:
        raise MatrixFormatError(f"non-integer header field in {lines[0]!r}") from None
    if nrows < 0 or ncols < 0 or p < 2:
        raise MatrixFormatError("header values out of range")
    rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"entry must be 'row col value', got {ln!r}")
        try:
            i, j, v = (int(x) for x in parts)
        except ValueError:
            raise MatrixFormatError(f"non-integer entry field in {ln!r}") from None
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise MatrixFormatError(f"entry ({i},{j}) outside {nrows}x{ncols}")
        if not 0 < v < p:
            raise MatrixFormatError(f"value {v} not in [1, {p})")
        if j in rows[i]:
            raise MatrixFormatError(f"duplicate entry at ({i},{j})")
        rows[i][j] = v
    return FieldMatrix(p, nrows, ncols, rows)
