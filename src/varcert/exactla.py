"""Exact row reduction and rank certificates over Z/p.

Two elimination backends sit behind rref(), chosen by modulus size:

  p <= 2^23   blocked float64 Gauss-Jordan; BLAS does the trailing updates.
              Exact because every intermediate is a non-negative integer
              below 2^53 (products < (p-1)^2 < 2^46, GEMM inner dimension
              capped so accumulated sums stay below 2^53).
  otherwise   sparse row-dict insertion with Python integers, any p < 2^62.

Both produce the same object: the reduced row echelon form, which is
unique, so pivot columns and quotient coordinates do not depend on the
backend or on row order.  dense_rank_oracle() is a deliberately separate
textbook elimination used only to cross-check ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

FLOAT_TIER_MAX = 1 << 23
INT64_TIER_MAX = 1 << 31
ORACLE_CELL_LIMIT = 10 ** 7
_PANEL = 64


class SizeGuardExceeded(Exception):
    pass


class MatrixFormatError(Exception):
    pass


@dataclass
class FieldMatrix:
    """Sparse rows over Z/p: each row maps column index to a value in [1, p)."""

    p: int
    nrows: int
    ncols: int
    rows: list[dict[int, int]]

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

    def entry_count(self) -> int:
        return sum(len(r) for r in self.rows)

    def transpose(self) -> FieldMatrix:
        cols: list[dict[int, int]] = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                cols[j][i] = v
        return FieldMatrix(self.p, self.ncols, self.nrows, cols)

    def to_dense_int64(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for i, r in enumerate(self.rows):
            if r:
                idx = np.fromiter(r.keys(), dtype=np.int64, count=len(r))
                val = np.fromiter(r.values(), dtype=np.int64, count=len(r))
                out[i, idx] = val
        return out

    def mul_vector(self, v: Sequence[int]) -> list[int]:
        p = self.p
        return [sum(c * v[j] for j, c in r.items()) % p for r in self.rows]


class EchelonResult:
    """Reduced row echelon form: pivot columns plus the normalized rows.

    The pivot columns of a reduced echelon form hold the identity, so of
    dense rows only the (rank x free columns) block is kept; sparse rows are
    kept as dicts, unit pivot included."""

    def __init__(self, p: int, ncols: int, pivots: tuple[int, ...],
                 dense: Optional[np.ndarray] = None,
                 sparse: Optional[list[dict[int, int]]] = None):
        self.p = p
        self.ncols = ncols
        self.pivots = pivots
        pivset = set(pivots)
        self._free = tuple(j for j in range(ncols) if j not in pivset)
        self._block = None if dense is None else dense[:, list(self._free)]
        self._sparse = sparse

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> tuple[int, ...]:
        return self._free

    def row_as_dict(self, k: int) -> dict[int, int]:
        if self._sparse is not None:
            return dict(self._sparse[k])
        r = self._block[k]
        out = {self.pivots[k]: 1}
        out.update((self._free[j], int(r[j])) for j in np.nonzero(r)[0])
        return out

    def reduce_vector(self, vec: Sequence[int]) -> list[int]:
        """Normal form of vec modulo the row space; zero on pivot columns."""
        p = self.p
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        out = [int(x) % p for x in vec]
        if self._block is not None:
            return [int(x) for x in self.reduce_block(np.array([out], dtype=np.int64))[0]]
        for k, c in enumerate(self.pivots):
            f = out[c]
            if f:
                for j, rv in self._sparse[k].items():
                    out[j] = (out[j] - f * rv) % p
        return out

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Row-wise reduce_vector for an int64 array of shape (m, ncols)."""
        p = self.p
        if block.shape[1] != self.ncols:
            raise ValueError("block width does not match column count")
        if not self.pivots:
            return block % p
        if self._block is None:
            out = np.empty_like(block)
            for i in range(block.shape[0]):
                out[i] = self.reduce_vector([int(x) for x in block[i]])
            return out
        v = (block % p).astype(np.float64)
        free = list(self._free)
        out = np.zeros(block.shape, dtype=np.int64)
        if free:
            red = _matmul_modp(v[:, list(self.pivots)], self._block, p)
            out[:, free] = np.mod(v[:, free] - red, p)
        return out


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
    """Inverse of an invertible float64 matrix over Z/p by Gauss-Jordan."""
    m = b.shape[0]
    aug = np.concatenate([b % p, np.eye(m)], axis=1)
    for j in range(m):
        t = j + int(np.nonzero(aug[j:, j])[0][0])
        if t != j:
            aug[[j, t]] = aug[[t, j]]
        inv = pow(int(aug[j, j]), p - 2, p)
        aug[j] = np.mod(aug[j] * inv, p)
        col = aug[:, j].copy()
        col[j] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            aug[nz] = np.mod(aug[nz] - np.outer(col[nz], aug[j]), p)
    return aug[:, m:]


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
    array of reduced rows is ever updated in place."""
    p = mat.p
    r, c = mat.nrows, mat.ncols
    orig = mat.to_dense_int64().astype(np.float64)
    orig %= p
    maxrank = min(r, c)
    rbuf = np.zeros((maxrank, c))
    pivots: list[int] = []
    npiv = 0
    live = np.arange(r)
    panel_cap = max(1, min(_PANEL, ((1 << 53) - p) // ((p - 1) * (p - 1))))
    col = 0
    while col < c and live.size:
        hi = min(col + panel_cap, c)
        pc = np.array(pivots, dtype=np.intp)
        panel = np.mod(orig[live][:, col:hi], p)
        if npiv:
            panel = np.mod(panel - _matmul_modp(orig[live][:, pc], rbuf[:npiv, col:hi], p), p)
        lc, ids = _panel_discovery(panel, p)
        b = len(lc)
        if b:
            newrows = live[ids[:b]]
            newcols = [col + j for j in lc]
            cur = np.mod(orig[newrows][:, col:], p)
            if npiv:
                cur = np.mod(cur - _matmul_modp(orig[newrows][:, pc], rbuf[:npiv, col:], p), p)
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
        residue = np.mod(orig[live], p)
        if npiv:
            pc = np.array(pivots, dtype=np.intp)
            residue = np.mod(residue - _matmul_modp(orig[live][:, pc], rbuf[:npiv], p), p)
        if np.any(residue):
            raise AssertionError("nonzero residue after elimination; arithmetic bug")
    return EchelonResult(p, c, tuple(pivots), dense=rbuf[:npiv])


def _rref_sparse(mat: FieldMatrix) -> EchelonResult:
    p = mat.p
    piv: dict[int, dict[int, int]] = {}
    for src in mat.rows:
        row = dict(src)
        # eliminating one pivot column never disturbs another: pivot rows
        # are themselves fully reduced, so a single pass suffices
        for c in sorted(set(row) & piv.keys()):
            f = row.pop(c)
            for j, v in piv[c].items():
                if j == c:
                    continue
                nv = (row.get(j, 0) - f * v) % p
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], p - 2, p)
        row = {j: v * inv % p for j, v in row.items()}
        row[lead] = 1
        for other in piv.values():
            f = other.get(lead)
            if f:
                for j, v in row.items():
                    nv = (other.get(j, 0) - f * v) % p
                    if nv:
                        other[j] = nv
                    else:
                        other.pop(j, None)
        piv[lead] = row
    pivots = tuple(sorted(piv))
    return EchelonResult(p, mat.ncols, pivots, sparse=[piv[c] for c in pivots])


def rref(mat: FieldMatrix) -> EchelonResult:
    if mat.nrows == 0 or mat.ncols == 0:
        return EchelonResult(mat.p, mat.ncols, (), sparse=[])
    if mat.p <= FLOAT_TIER_MAX:
        return _rref_float_blocked(mat)
    return _rref_sparse(mat)


def rank(mat: FieldMatrix) -> int:
    return rref(mat).rank


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
        w = mat.to_dense_int64() % p
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
