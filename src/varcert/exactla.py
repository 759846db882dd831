"""Exact row reduction and rank certificates over Z/p, p < 2^63.

rref() is one batched Gauss-Jordan for every prime.  Rows are read one
way, as dense blocks (FieldMatrix.dense), however they are held: an array,
rows built on request, or the CSR arrays of a matrix dump.  matmul_modp()
is the one exact product it and its callers use: below 2^21, with an inner
dimension short enough, one float64 GEMM; otherwise float64 GEMMs of
21-bit limbs, recombined in uint64 words that a rounded float64 estimate
of their quotient by p reduces (_Zp64).  Within a batch, a pivot clears
its column by one of two rules (_gauss_jordan): below 2^32 uint64 updates,
reduced once every k of them; above it updates reduced from a float
quotient, as in the products.  The reduced row echelon form is
unique, so pivot columns and quotient coordinates do not depend on row
order; it is kept as one rank x free-columns int64 block.
dense_rank_oracle() is a deliberately separate textbook elimination used
only to cross-check ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .polyring import PrimeField

ORACLE_CELL_LIMIT = 10 ** 7
ENGINE_BYTES_LIMIT = 1 << 30  # largest pivot block rref allocates
_CHUNK = 1 << 13  # cells per temporary in products and block slices
_ROWS_PER_READ = 32  # rows per FieldMatrix.dense call: rref's batch
_LIMB = 21  # bits per limb in matmul_modp


class SizeGuardExceeded(Exception):
    pass


class MatrixFormatError(Exception):
    pass


class RowArrays:
    """Rows that are held, or built on demand, as dense blocks ncols wide:
    subclasses set ncols and define __len__ and dense().  Iterating yields
    dict rows."""

    ncols: int

    def __len__(self) -> int:
        raise NotImplementedError

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 as an (hi - lo) x ncols int64 array of entries in
        [0, p), which the caller must not write to."""
        raise NotImplementedError

    def __iter__(self):
        # a block of rows at a time, so rows built on demand are never all
        # in memory
        for lo in range(0, len(self), _ROWS_PER_READ):
            for row in self.dense(lo, min(lo + _ROWS_PER_READ, len(self))):
                nz = np.flatnonzero(row)
                yield dict(zip(nz.tolist(), row[nz].tolist()))


class CsrRows(RowArrays):
    """Rows stored whole as CSR arrays (indptr, intp columns, int64 values
    in [0, p)), scattered into zeros when read."""

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int):
        self.indptr, self.cols, self.vals, self.ncols = indptr, cols, vals, ncols

    def __len__(self) -> int:
        return self.indptr.size - 1

    def dense(self, lo: int, hi: int) -> np.ndarray:
        ip = self.indptr[lo:hi + 1]
        s, e = int(ip[0]), int(ip[-1])
        out = np.zeros((hi - lo, self.ncols), dtype=np.int64)
        out[np.repeat(np.arange(hi - lo), np.diff(ip)), self.cols[s:e]] = self.vals[s:e]
        return out


class ArrayRows(RowArrays):
    """The rows of a 2-D int64 array, held as it is."""

    def __init__(self, a: np.ndarray):
        self.a, self.ncols = np.asarray(a, dtype=np.int64), a.shape[1]

    def __len__(self) -> int:
        return self.a.shape[0]

    def dense(self, lo: int, hi: int) -> np.ndarray:
        return self.a[lo:hi]


@dataclass
class FieldMatrix:
    """Rows over Z/p, held as a RowArrays: stored CSR arrays, an array, or
    rows built on each request.

    rank_bound, when given, must be a proven upper bound on the rank: rref
    stops reading rows once it reaches it.  rows_read counts the leading
    rows handed out through dense()."""

    p: int
    ncols: int
    rows: RowArrays
    rank_bound: Optional[int] = None
    rows_read: int = field(default=0, init=False, compare=False)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_array(cls, p: int, a: np.ndarray) -> FieldMatrix:
        """The matrix of a 2-D int64 array with entries in [0, p), which it
        keeps."""
        return cls(p, a.shape[1], ArrayRows(a))

    def dense(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Rows lo..hi-1 (all by default) as an int64 array of entries in
        [0, p), not to be written to.  The one way rows are read."""
        hi = self.nrows if hi is None else hi
        self.rows_read = max(self.rows_read, hi)
        return self.rows.dense(lo, hi)


class EchelonResult:
    """Reduced row echelon form: pivot columns plus the normalized rows.

    The pivot columns of a reduced echelon form hold the identity, so only
    the rows' entries at the free columns are kept, as a rank x free-columns
    int64 block with entries in [0, p), rows in pivot order."""

    def __init__(self, p: int, ncols: int, pivots: tuple[int, ...], block: np.ndarray):
        self.p = p
        self.ncols = ncols
        self.pivots = pivots
        free = np.ones(ncols, dtype=bool)
        free[list(pivots)] = False
        self._free = tuple(np.flatnonzero(free).tolist())
        self._block = block

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> tuple[int, ...]:
        return self._free

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


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p, p < 2^63, for int64 or uint64 arrays with
    entries in [0, p); the result has a's dtype.

    Residues are split into the fewest 21-bit limbs that hold p - 1 (Ozaki
    et al. 2012).  With one limb (p <= 2^21) and an inner dimension k that
    sums exactly, k (p-1)^2 < 2^53, each block of rows is one float64 GEMM
    reduced mod p straight into the result.  Otherwise limb products are
    below 2^42, and the inner index is taken kc at a time so that the up to
    nl GEMMs at one limb position s sum below 2^53, exactly.  Those sums
    t_s are folded from the top, nl - 1 positions at a time (acc 2^42 + t_s
    2^21 + t_(s-1) for three limbs, acc 2^21 + t_s for two), in two
    float-quotient steps (_Zp64.fold): each word is known mod 2^64, its
    quotient by p stays below 2^44, and the remainder from the rounded
    estimate lies in (-0.51p, 0.51p) before its one correction.  One limb
    keeps t mod p.  So the products are reduced once (delayed reduction,
    Dumas-Giorgi-Pernet 2008), a few rows at a time.  An empty product is
    zeros at once."""
    (m, k), w = a.shape, b.shape[1]
    if not (m and k and w):
        return np.zeros((m, w), dtype=a.dtype)
    nl = max(1, -(-(p - 1).bit_length() // _LIMB))
    top = min(p - 1, (1 << _LIMB) - 1)  # the largest limb
    kc = max(1, ((1 << 53) - 1) // (nl * top * top))
    mb = max(1, _CHUNK // max(1, w))
    zp = _Zp64(p)
    if nl == 1 and k <= kc:  # one exact GEMM per row block
        bf = b.astype(np.float64)
        out = np.empty((m, w), dtype=np.uint64)
        for r in range(0, m, mb):
            np.remainder((a[r:r + mb].astype(np.float64) @ bf).astype(np.uint64), zp.p,
                         out=out[r:r + mb])
        return out.view(a.dtype)
    out = np.zeros((m, w), dtype=np.uint64)
    for lo in range(0, k, kc):
        bl = _limbs(b[lo:lo + kc], nl)
        for r in range(0, m, mb):
            al = _limbs(a[r:r + mb, lo:lo + kc], nl)
            # the limb sums from the top, each formed when it is folded
            t = (sum(al[i] @ bl[s - i] for i in range(max(0, s - nl + 1), min(s, nl - 1) + 1))
                 for s in reversed(range(2 * nl - 1)))
            acc = next(t)
            if nl == 1:
                acc = acc.astype(np.uint64) % zp.p
            for _ in range(2 if nl > 1 else 0):
                acc = zp.fold(acc, [next(t) for _ in range(nl - 1)][::-1])
            out[r:r + mb] = zp.add(out[r:r + mb], acc)
    return out.view(a.dtype)


def _limbs(x: np.ndarray, nl: int) -> list[np.ndarray]:
    """The nl 21-bit limbs of x's entries, least significant first, as
    float64 arrays."""
    return [((x >> (_LIMB * i)) & ((1 << _LIMB) - 1)).astype(np.float64) for i in range(nl)]


_SPLIT = np.array([31, 0], dtype=np.uint64)  # r -> (r_h, r_l), r = r_h 2^31 + r_l
_MASK = np.array([(1 << 32) - 1, (1 << 31) - 1], dtype=np.uint64)


class _Zp64:
    """Exact arithmetic mod p < 2^63 on uint64 arrays.

    Above 2^32 a product is reduced from a rounded float64 estimate of its
    quotient (van der Hoeven, Lecerf and Quintin 2016): for X known mod 2^64
    and e within 0.01 of X/p, v = X - rint(e) p, computed mod 2^64, is an
    integer in (-0.51p, 0.51p), and min(v, v + p) taken mod 2^64 is X mod
    p.  1.51p < 2^64 is what needs p < 2^63.  A float64 estimate of a sum of
    a few rounded products is that close while |X/p| < 2^44."""

    def __init__(self, p: int):
        if p >= 1 << 63:
            raise ValueError(f"modulus {p} is not below 2^63")
        self.p = np.uint64(p)

    def reduce(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        """X mod p, in place in x, for x = X mod 2^64 and a float64 array e
        within 0.01 of X/p; e is overwritten."""
        q = np.rint(e, out=e).astype(np.int64).view(np.uint64)
        q *= self.p
        x -= q
        return np.minimum(x, x + self.p, out=x)

    def fold(self, acc: np.ndarray, ts: list[np.ndarray]) -> np.ndarray:
        """(acc 2^(21 k) + sum of ts[i] 2^(21 i)) mod p, k = len(ts), for
        float64 limb sums ts below 2^53 and acc a limb sum or residues, when
        that quotient stays below 2^44."""
        p = int(self.p)
        x = acc.astype(np.uint64) << np.uint64(_LIMB * len(ts))
        e = acc * (2.0 ** (_LIMB * len(ts)) / p)
        for i, t in enumerate(ts):
            u = t.astype(np.uint64)
            x += u << np.uint64(_LIMB * i) if i else u
            e += t * (2.0 ** (_LIMB * i) / p)
        return self.reduce(x, e)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s = x + y
        return np.minimum(s, s - self.p, out=s)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s = x - y
        return np.minimum(s, s + self.p, out=s)


class _PivotRows:
    """The rows of a partial reduced echelon form at their free columns:
    with r rows found, an r x (ncols - r) uint64 block at the start of one
    flat buffer, columns in matrix order, rows in the order found."""

    def __init__(self, zp: _Zp64, ncols: int, cells: int):
        self.zp = zp
        self.buf = np.empty(cells, dtype=np.uint64)
        self.free = np.arange(ncols)  # block column -> matrix column
        self.pivots = np.zeros(0, dtype=np.intp)  # pivot column of each block row

    @property
    def block(self) -> np.ndarray:
        r, w = self.pivots.size, self.free.size
        return self.buf[:r * w].reshape(r, w)

    def reduce(self, batch: np.ndarray) -> np.ndarray:
        """The rows of the uint64 array batch reduced modulo the pivot rows,
        at the free columns and column-major: x - coef @ block, with x and
        coef the batch's free and pivot columns, over the block rows coef
        touches, a few at a time, and their nonzero columns."""
        if not self.pivots.size:  # nothing to reduce by: the batch itself
            return np.array(batch, order="F")
        x = batch.T[self.free].T  # a gathered copy, column-major
        coef = batch[:, self.pivots]
        touched = np.flatnonzero(coef.any(axis=0))
        block, step = self.block, max(1, _CHUNK // max(1, self.free.size))
        for s in range(0, touched.size, step):
            t = touched[s:s + step]
            b = block[t] if t.size < block.shape[0] else block
            nzc = np.flatnonzero(b.any(axis=0))
            if nzc.size == b.shape[1]:  # slices, not copies
                nzc = slice(None)
            x[:, nzc] = self.zp.sub(x[:, nzc], matmul_modp(coef[:, t], b[:, nzc],
                                                           int(self.zp.p)))
        return x

    def insert(self, lead: list[int], new: np.ndarray) -> None:
        """Add the reduced rows new, with pivots at block columns lead: clear
        those columns with one product, block -= block[:, lead] @ new (a few
        rows at a time, where it can be nonzero), then drop them in place."""
        r, w, k = self.pivots.size, self.free.size, len(lead)
        block = self.block
        g = block[:, lead]
        hit = np.flatnonzero(g.any(axis=1))
        if hit.size:  # none on a first batch, whose block has no rows
            nzc = np.flatnonzero(new.any(axis=0))
            step = max(1, _CHUNK // max(1, nzc.size))
            for a in range(0, hit.size, step):
                at = np.ix_(hit[a:a + step], nzc)
                block[at] = self.zp.sub(block[at], matmul_modp(g[hit[a:a + step]], new[:, nzc],
                                                               int(self.zp.p)))
        step = max(1, _CHUNK // w)
        keep = np.delete(np.arange(w), lead)
        w2 = keep.size
        # row i moves from offset i*w to i*w2 <= i*w, so a chunk never
        # overwrites rows that later chunks still have to read
        for a in range(0, r, step):
            b = min(r, a + step)
            self.buf[a * w2:b * w2] = self.buf[a * w:b * w].reshape(b - a, w)[:, keep].ravel()
        self.buf[r * w2:(r + k) * w2] = new[:, keep].ravel()
        self.pivots = np.concatenate([self.pivots, self.free[lead]])
        self.free = self.free[keep]


def _gauss_jordan(zp: _Zp64, y: np.ndarray, budget: int) -> tuple[list[int], np.ndarray]:
    """Bring the rows of the uint64 array y to reduced echelon form, up to
    budget pivots; returns the pivot column of each pivot row and those
    rows.  Once budget pivots are found the rows after the last are not
    scanned: with budget the rank left to a proven bound, they lie in the
    span, which the caller's residual check verifies.  Each pivot row is
    normalized when found, to r with 1 at its pivot column j, and clears
    that column from the other rows with the column itself, reduced, as the
    factors f: y - f r.  r is 0 at the earlier pivots' columns, so those
    stay cleared and every pivot row keeps its 1.  Each update is applied
    to the whole slice y[:, j:] in place, so y is overwritten; with y in
    column-major order that slice is one slab.

    The update rule follows from one number, k = (2^64 - p) // (p (p-1)),
    the updates of at most p (p-1) that an entry below p takes in uint64.
    With k >= 1 (p < 2^32) an update adds (p - f) r, and y is reduced after
    every k updates, so no entry passes p - 1 + k p (p-1) < 2^64 (delayed
    reduction, Dumas-Giorgi-Pernet 2008): the whole batch, and each row
    when it is read.  With k = 0 y stays in [0, p) and each update is
    reduced from a float quotient (van der Hoeven, Lecerf and Quintin
    2016).  There r comes as the pair
    (R', r) = (u 2^31, u) v^-1 mod p, for the raw row u with pivot entry v,
    from one uint64 product of u's 31-bit split, whose quotients are below
    2^33, and one _Zp64.reduce.  With f = f_h 2^31 + f_l, y - f r is
    congruent to X = y - R' f_h - r f_l, known mod 2^64 from one uint64
    product, and y/p - [R' r] @ [f_h/p; f_l/p], a float64 GEMM below 2^33,
    is within 2^-16 of X/p, so X - rint(that) p is in (-0.51p, 0.51p) for
    any nb."""
    P, p, (nb, c) = zp.p, int(zp.p), y.shape
    k = ((1 << 64) - p) // (p * (p - 1))
    yt = y.T  # with y column-major, the columns an update touches are one slab
    step = max(1, _CHUNK // max(1, nb))
    lead, rows, pending = [], [], 0  # pending: updates since y was reduced
    for i in range(nb):
        if pending:
            y[i] %= P
        nz = y[i].nonzero()[0]  # np.flatnonzero would copy the strided row
        if not nz.size:
            continue
        j = int(nz[0])
        inv = pow(int(y[i, j]), -1, p)
        f = y[:, j] % P
        f[i] = 0
        hit = np.count_nonzero(f)
        row = yt[j:, i]
        if k:
            row *= inv
            row %= P
            if hit:
                g = np.subtract(P, f, out=f)  # p - f, in place
                g[i] = 0
                for a in range(j, c, step):
                    part = yt[a:a + step]
                    part += yt[a:a + step, i, None] * g
                pending += 1
                if pending == k:
                    y %= P
                    pending = 0
        else:
            m = np.array([[(inv << 62) % p, (inv << 31) % p], [(inv << 31) % p, inv]],
                         dtype=np.uint64)
            rs = (row[:, None] >> _SPLIT) & _MASK
            pair = zp.reduce(rs @ m, rs @ (m / p))  # R', r
            row[:] = pair[:, 1]
            if hit:
                fs = (f >> _SPLIT[:, None]) & _MASK[:, None]  # f_h, f_l
                fsp = fs / p
                for a in range(j, c, step):
                    part, rp = yt[a:a + step], pair[a - j:a - j + step]
                    e = part * (1.0 / p)
                    e -= rp @ fsp
                    part -= rp @ fs
                    zp.reduce(part, e)
        lead.append(j)
        rows.append(i)
        if len(lead) == budget:
            break
    new = y[rows]
    if pending:
        new %= P
    return lead, new


def rref(mat: FieldMatrix) -> EchelonResult:
    """The reduced row echelon form of mat, by batched Gauss-Jordan.

    Rows are read _ROWS_PER_READ at a time as one dense block through
    mat.dense, empty ones dropped.  A batch's pivot and free columns are
    gathered from it and reduced modulo the pivot rows (one matmul_modp),
    brought to reduced echelon form, and its pivots are back-substituted
    into the pivot rows (one more).  Reduced again, the batch must vanish:
    the row space only grows, so every row read lies in the final one.
    Elimination stops at the matrix's rank bound (at most ncols), where the
    pivot rows span the row space: no further batch is read, and a batch
    that reaches it stops scanning its rows there.  Its remaining rows are
    still reduced by the residual check, so a bound below the true rank
    leaves a nonzero residue and is caught like any arithmetic fault.  A
    pivot block whose largest size, r x (ncols - r), exceeds
    ENGINE_BYTES_LIMIT is refused before allocating."""
    p, c = mat.p, mat.ncols
    if mat.nrows == 0 or c == 0 or mat.rank_bound == 0:
        return EchelonResult(p, c, (), np.zeros((0, c), dtype=np.int64))
    maxrank = min(mat.nrows, c if mat.rank_bound is None else mat.rank_bound)
    t = min(maxrank, c // 2)
    cells = t * (c - t)
    if cells * 8 > ENGINE_BYTES_LIMIT:
        raise SizeGuardExceeded(
            f"pivot block needs {cells * 8} bytes for {mat.nrows}x{c}, over "
            f"the {ENGINE_BYTES_LIMIT} limit")
    piv = _PivotRows(_Zp64(p), c, cells)
    for lo in range(0, mat.nrows, _ROWS_PER_READ):
        batch = mat.dense(lo, min(lo + _ROWS_PER_READ, mat.nrows)).view(np.uint64)
        batch = batch[batch.any(axis=1)]  # the nonempty rows
        if not batch.size:
            continue
        lead, new = _gauss_jordan(piv.zp, piv.reduce(batch), maxrank - piv.pivots.size)
        if not lead:
            continue
        piv.insert(lead, new)
        if np.count_nonzero(piv.reduce(batch)):
            raise AssertionError("nonzero residue after elimination; arithmetic bug")
        if piv.pivots.size == maxrank:
            break
    order = np.argsort(piv.pivots)
    return EchelonResult(p, c, tuple(piv.pivots[order].tolist()), piv.block[order].view(np.int64))


def kernel_witness(mat: FieldMatrix, ech: EchelonResult) -> Optional[list[int]]:
    """A verified nonzero kernel vector of mat, or None when its columns
    are independent, read from ech = rref(mat).

    Uses the leftmost free column, so the witness is deterministic: the
    columns left of it are the pivots of the first rows, and their entries
    at it (column 0 of the free block) give the rest of the vector."""
    if ech.rank == mat.ncols:
        return None
    p = mat.p
    free = ech.free_columns()[0]
    v = [0] * mat.ncols
    v[free] = 1
    v[:free] = (-ech.free_block()[:free, 0] % p).tolist()
    # one exact product, in Python ints
    if (mat.dense().astype(object) @ np.array(v, dtype=object) % p).any():
        raise AssertionError("kernel witness failed exact verification")
    return v


def _check_oracle_size(nrows: int, ncols: int) -> None:
    # a row costs at least one cell (its indptr entry) even with no columns
    if nrows * max(ncols, 1) > ORACLE_CELL_LIMIT:
        raise SizeGuardExceeded(
            f"oracle limited to {ORACLE_CELL_LIMIT} cells, got {nrows}x{ncols}")


def dense_rank_oracle(mat: FieldMatrix) -> int:
    """Independent rank check: plain forward elimination, no blocking.

    Kept deliberately separate from rref(); used to cross-validate it.
    Entries are int64 below 2^31 and Python ints (an object array) above,
    so no product overflows."""
    _check_oracle_size(mat.nrows, mat.ncols)
    p = mat.p
    w = mat.dense().astype(np.int64 if p < 1 << 31 else object)  # a copy
    r, c = w.shape
    # when accumulated updates cannot overflow int64 (never at p >= 2^31),
    # defer all mods and reduce only the scanned column and the pivot row
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


# --- text dump format -----------------------------------------------------
#
# line 1:  nrows ncols modulus
# then one "row col value" triple per nonzero entry, row-major, 0-indexed

def load_matrix(path) -> FieldMatrix:
    """The matrix in a dump file.  Before any array is built, a malformed
    file raises MatrixFormatError, then a modulus that is not a prime below
    2^62 ValueError (from PrimeField), then a matrix over the dense
    oracle's cell limit SizeGuardExceeded."""
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
    entries: dict[tuple[int, int], int] = {}
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
        if (i, j) in entries:
            raise MatrixFormatError(f"duplicate entry at ({i},{j})")
        entries[i, j] = v
    PrimeField(p)
    _check_oracle_size(nrows, ncols)
    ij = np.array(list(entries), dtype=np.intp).reshape(-1, 2)
    vals = np.array(list(entries.values()), dtype=np.int64)
    order = np.argsort(ij[:, 0], kind="stable")  # each row's entries in file order
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(ij[:, 0], minlength=nrows), out=indptr[1:])
    return FieldMatrix(p, ncols, CsrRows(indptr, ij[order, 1], vals[order], ncols))
