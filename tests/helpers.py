"""Helpers only the tests call: matrices from dict rows, held as CSR
arrays (`CsrRows`, the sparse fixture), and their product with a vector,
the normal forms of rows modulo an echelon, a writer for the matrix dump
format that `rank-oracle` reads, the injectivity-descent property behind
C7, the relation matrix with one column per pair (variable, basis
monomial), and the ideal matrix of any degree, the reference the chain's
dims, bases and normal forms are checked against."""

from typing import Iterable, Sequence

import numpy as np

from varcert.exactla import _ROWS_PER_READ, EchelonResult, FieldMatrix, RowArrays, matmul_modp
from varcert.jacobian import JacobianRing
from varcert.lefschetz import mult_map
from varcert.polyring import (HomogeneousForm, Monomial, enumerate_monomials, monomial_count,
                              monomial_keys)


class CsrRows(RowArrays):
    """Rows stored whole as CSR arrays (indptr, intp columns, int64 values
    in [0, p)), scattered into zeros when read: the sparse fixture."""

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


def from_rows(p: int, ncols: int, rows: Iterable[dict[int, int]]) -> FieldMatrix:
    """The matrix of rows given as dicts from column to value; values are
    taken mod p and zeros dropped."""
    indptr, cols, vals = [0], [], []
    for r in rows:
        for j, v in r.items():
            if not 0 <= j < ncols:
                raise ValueError(f"column {j} out of range for ncols={ncols}")
            v %= p
            if v:
                cols.append(j)
                vals.append(v)
        indptr.append(len(cols))
    return FieldMatrix(p, CsrRows(np.array(indptr, dtype=np.int64),
                                  np.array(cols, dtype=np.intp),
                                  np.array(vals, dtype=np.int64), ncols))


def mul_vector(mat: FieldMatrix, v: Sequence[int]) -> list[int]:
    """mat @ v mod p, in Python ints, one dict row at a time."""
    return [sum(c * v[j] for j, c in r.items()) % mat.p for r in mat.rows]


def reduce_rows(ech: EchelonResult, block: np.ndarray) -> np.ndarray:
    """The normal forms of the rows of an int64 array of shape (m, ncols)
    modulo ech's row space, with entries in [0, p) and zero at the pivot
    columns: block @ ech.normal_forms(), one matmul_modp, placed at the
    free columns."""
    out = np.zeros(block.shape, dtype=np.int64)
    out[:, list(ech.free_columns())] = matmul_modp(block % ech.p, ech.normal_forms(), ech.p)
    return out


def dump_matrix(mat: FieldMatrix, path) -> None:
    """Write mat in the format exactla.load_matrix reads: a 'nrows ncols
    modulus' header, then one 'row col value' line per nonzero entry."""
    with open(path, "w") as fh:
        fh.write(f"{mat.nrows} {mat.ncols} {mat.p}\n")
        for i, r in enumerate(mat.rows):
            for j in sorted(r):
                fh.write(f"{i} {j} {r[j]}\n")


def injectivity_descends(ring: JacobianRing, ell: HomogeneousForm) -> bool:
    """Cross-validation property: once x l: R_{d-1} -> R_d is injective,
    x l: R_{p-1} -> R_p must be injective for every p <= d (an element
    killed by l is killed by all of R_{d-p+1}, hence zero by duality)."""
    d = ring.degree
    top = mult_map(ring, ell, d)
    if not top.is_injective():
        raise ValueError("precondition: x l must be injective into degree d")
    return all(mult_map(ring, ell, p).is_injective() for p in range(1, d + 1))


def times_variable(m: Monomial, k: int) -> Monomial:
    return m[:k] + (m[k] + 1,) + m[k + 1:]


def product_monomials(n: int, q: int, basis) -> list[Monomial]:
    """The distinct products x_k b of a variable and a degree-q monomial
    of basis, in the column order of the degree-(q+1) monomials."""
    prods = {times_variable(b, k) for b in basis for k in range(n + 1)}
    return [u for u in enumerate_monomials(n, q + 1) if u in prods]


def degrevlex_descending(monomials) -> list[Monomial]:
    """Monomials of one degree in descending degrevlex order (x0 > ... > xn):
    of two, the larger has the smaller exponent at the last variable where
    they differ."""
    return sorted(monomials, key=lambda m: m[::-1])


def pair_relation_matrix(ring: JacobianRing, q: int) -> FieldMatrix:
    """The relations x_k (x) [m] - x_j (x) [m'] of degree q with one column
    per pair (x_k, basis vector i of R_q), column k*f + i, in the basis of
    `ring.normal_forms(q)`: one row per consecutive pair x_k < x_j of the
    variables dividing a degree-(q+1) monomial u, m = u / x_k and
    m' = u / x_j, with the monomials u in column order.  No rank bound."""
    n, p = ring.n, ring.field.p
    nf = ring.normal_forms(q)
    f = nf.shape[1]
    row_of = {m: j for j, m in enumerate(enumerate_monomials(n, q))}
    pairs = []
    for u in enumerate_monomials(n, q + 1):
        reps = [(k, row_of[u[:k] + (u[k] - 1,) + u[k + 1:]]) for k in range(n + 1) if u[k]]
        pairs.extend(a + b for a, b in zip(reps, reps[1:]))
    out = np.zeros((len(pairs), (n + 1) * f), dtype=np.int64)
    for r, (k, a, j, b) in enumerate(pairs):
        out[r, k * f:(k + 1) * f] = nf[a]
        out[r, j * f:(j + 1) * f] = -nf[b] % p
    return FieldMatrix.from_array(p, out)


class IdealRows(RowArrays):
    """The rows m * dF/dx_i of a degree-p ideal matrix in the degree-p
    monomial basis, m running over the monomials of degree mult_deg and i
    over the partials.  Row (m, i) holds the coefficients of dF/dx_i at the
    columns of m times its monomials, so only the partials' terms are
    stored: with additive monomial keys, one broadcast add and one lookup
    give the columns of a whole run of multipliers.  Rows are built on each
    request as CSR arrays, scattered when read dense, and are never all in
    memory.  Iterating reads the CSR arrays, not dense blocks: the largest
    matrices the tests walk row by row are 115830 x 43758."""

    def __init__(self, n: int, p: int, mult_deg: int, partials):
        self._keys = monomial_keys(n, p)
        self.ncols = monomial_count(n, p)
        self._mult = (self._keys.of(enumerate_monomials(n, mult_deg)) if mult_deg >= 0
                      else np.zeros(0, dtype=np.int64))
        self._nparts = len(partials)
        self._term_keys = self._keys.of([m for f in partials for m in f.terms])
        self._term_vals = np.array([c for f in partials for c in f.terms.values()],
                                   dtype=np.int64)
        # offset of each partial's terms in the two arrays above
        self._starts = np.cumsum([0] + [len(f.terms) for f in partials])

    def __len__(self) -> int:
        return self._mult.size * self._nparts

    def csr(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows lo..hi-1 as (indptr starting at 0, intp columns, int64
        values in [0, p))."""
        k, t = self._nparts, self._term_keys.size
        a, b = lo // k, -(-hi // k)  # the multipliers rows lo..hi-1 come from
        cols = self._keys.columns((self._mult[a:b, None] + self._term_keys).ravel())
        vals = np.tile(self._term_vals, b - a)
        indptr = np.append((np.arange(b - a)[:, None] * t + self._starts[:-1]).ravel(),
                           (b - a) * t)
        ip = indptr[lo - a * k:hi - a * k + 1]
        s, e = int(ip[0]), int(ip[-1])
        return ip - s, cols[s:e], vals[s:e]

    def dense(self, lo: int, hi: int) -> np.ndarray:
        return CsrRows(*self.csr(lo, hi), self.ncols).dense(0, hi - lo)

    def __iter__(self):
        for lo in range(0, len(self), _ROWS_PER_READ):
            indptr, cols, vals = self.csr(lo, min(lo + _ROWS_PER_READ, len(self)))
            ip = indptr.tolist()
            for s, e in zip(ip, ip[1:]):
                yield dict(zip(cols[s:e].tolist(), vals[s:e].tolist()))


def ideal_matrix(ring: JacobianRing, p: int) -> FieldMatrix:
    """Rows span the degree-p piece of the partials' ideal; columns are
    the degree-p monomials; the rank is at most C(n+p, n) - CI_p.  The
    rows are regenerated on every pass over them, so they are never all in
    memory at once."""
    cols = ring._check_columns(p)
    rows = IdealRows(ring.n, p, p - (ring.degree - 1), ring.partials)
    return FieldMatrix(ring.field.p, rows, rank_bound=cols - ring._ci_dim(p))
