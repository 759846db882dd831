"""Graded pieces of Jacobian rings R = k[x_0..x_n]/(dF/dx_0..dF/dx_n).

A graded piece R_p is presented as the cokernel of the ideal matrix whose
rows are the monomial multiples of the partials, expressed in the fixed
monomial basis of degree p.  Ranks over Z/p certify dimensions; a vanishing
piece one past the socle degree (n+1)(d-2) certifies that the partials are
a regular sequence, hence that the form is smooth and R is the complete
intersection quotient with the standard Hilbert series.

Most degrees are not eliminated from their ideal matrix.  In every degree
above d-1 the ideal is S_1 times its piece one degree lower, so R_{q+1} is
the span of the products x_k b of the variables and a basis of R_q modulo
the relations x_k m = x_j m', and a relation matrix with one column per
distinct product monomial gives degree q+1, smooth form or not.  Its
echelon yields the normal form of every degree-(q+1) monomial in a basis
of products x_k b of R_{q+1}, which is all the next step, dim R_{q+1} and a
multiplication map into R_{q+1} need (Matrix-F5's incremental step,
Bardet-Faugere-Salvy 2015, with F4's monomial-indexed columns, Faugere
1999).  An ideal step keeps the same pair, normal forms and basis
monomials, in the standard monomials its echelon leaves free.  Degrees up
to d-1 are ideal steps, the last of them the n+1 partials; the chain
starts at d-1 and runs up to socle+1, whose relation matrix is at most n+1
columns wide.  The relation matrices order their columns by descending
degrevlex, so each relation degree's basis is its degrevlex standard
monomials, the order in which generic initial ideals behave best
(Bayer-Stillman 1987), and the products of a basis stay few.  The
complete-intersection series bounds every rank from above, which lets the
elimination stop reading rows early.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Optional

import numpy as np

from .exactla import (
    ENGINE_BYTES_LIMIT,
    FieldMatrix,
    RowArrays,
    SizeGuardExceeded,
    matmul_modp,
    rref,
)
from .polyring import (
    HomogeneousForm,
    Monomial,
    PrimeField,
    enumerate_monomials,
    monomial_count,
    monomial_keys,
    partial_derivatives,
)

IDEAL_MATRIX_COLUMN_LIMIT = 2 * 10 ** 6


class CharacteristicError(Exception):
    """The modulus is too small for the degree: exponents up to d must be
    invertible, so p > d is required."""


class HilbertMismatch(Exception):
    """Smoothness was certified but a graded dimension disagrees with the
    complete-intersection series; indicates an internal arithmetic bug."""


def _comb0(m: int, k: int) -> int:
    return math.comb(m, k) if m >= k >= 0 else 0


def ci_hilbert_coefficients(n: int, d: int) -> list[int]:
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^(n+1), degrees 0..(n+1)(d-2).

    This is the Hilbert function of the Jacobian ring of any smooth
    degree-d hypersurface in n+1 variables."""
    if n < 0 or d < 2:
        raise ValueError("need n >= 0 and d >= 2")
    top = (n + 1) * (d - 2)
    out = []
    for p in range(top + 1):
        s = 0
        for j in range(n + 2):
            term = _comb0(n + 1, j) * _comb0(n + p - j * (d - 1), n)
            s += term if j % 2 == 0 else -term
        out.append(s)
    return out


class _IdealRows(RowArrays):
    """The rows m * dF/dx_i of a degree-p ideal matrix in the degree-p
    monomial basis, m running over the monomials of degree mult_deg and i
    over the partials.  Row (m, i) holds the coefficients of dF/dx_i at the
    columns of m times its monomials, so only the partials' terms are
    stored: with additive monomial keys, one broadcast add and one lookup
    give the columns of a whole run of multipliers.  Rows are built on each
    request and are never all in memory."""

    def __init__(self, n: int, p: int, mult_deg: int, partials):
        self._keys = monomial_keys(n, p)
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
        k, t = self._nparts, self._term_keys.size
        a, b = lo // k, -(-hi // k)  # the multipliers rows lo..hi-1 come from
        cols = self._keys.columns((self._mult[a:b, None] + self._term_keys).ravel())
        vals = np.tile(self._term_vals, b - a)
        indptr = np.append((np.arange(b - a)[:, None] * t + self._starts[:-1]).ravel(),
                           (b - a) * t)
        ip = indptr[lo - a * k:hi - a * k + 1]
        s, e = int(ip[0]), int(ip[-1])
        return ip - s, cols[s:e], vals[s:e]


class _RelationRows(RowArrays):
    """The rows x_k (x) [m] - x_j (x) [m'] of a relation matrix, one per
    pair of positions a = k * M + m, b = j * M + m' (M the number of
    degree-q monomials).  Its columns are the distinct products of a
    variable and a basis monomial of R_q, `products` in column order, and
    x_k (x) [m] is the normal form nf[m] of m in that basis (f columns) at
    the columns ucol[k] of the products x_k b_0..x_k b_{f-1}.  No two
    entries of one half share a column, but the two halves may, so a row is
    written into a dense block and its second half subtracted mod p; a row
    joining two basis monomials comes out empty.  Rows are built on each
    request, so the rows after rref's early stop are never built."""

    def __init__(self, nf: np.ndarray, products: np.ndarray, ucol: np.ndarray,
                 a: np.ndarray, b: np.ndarray, p: int):
        self._nf, self._a, self._b, self._p = nf, a, b, p
        self.products, self.ucol = products, ucol

    def __len__(self) -> int:
        return self._a.size

    def csr(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, a, b = self._nf.shape[0], self._a[lo:hi], self._b[lo:hi]
        rows = np.arange(a.size)[:, None]
        block = np.zeros((a.size, self.products.size), dtype=np.int64)
        block[rows, self.ucol[a // m]] = self._nf[a % m]
        second = rows, self.ucol[b // m]
        block[second] = (block[second] - self._nf[b % m]) % self._p
        rix, cols = np.nonzero(block)
        indptr = np.zeros(a.size + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(block, axis=1), out=indptr[1:])
        return indptr, cols, block[rix, cols]


class JacobianRing:
    """Exact model of the Jacobian ring of one form at one prime."""

    def __init__(self, form: HomogeneousForm):
        if form.degree < 2:
            raise ValueError("Jacobian ring needs degree >= 2")
        if form.field.p <= form.degree:
            raise CharacteristicError(
                f"prime {form.field.p} must exceed the degree {form.degree}")
        self.form = form
        self.field = form.field
        self.n = form.n
        self.degree = form.degree
        self.socle = (self.n + 1) * (self.degree - 2)
        self.partials = partial_derivatives(form)
        self._ci = ci_hilbert_coefficients(self.n, self.degree)
        # degree -> (normal forms of its monomials, or None for the identity
        # below d-1, and the columns of its basis monomials)
        self._pieces: dict[int, tuple[Optional[np.ndarray], np.ndarray]] = {}
        self._stages: dict[int, dict] = {}

    def _ci_dim(self, p: int) -> int:
        """The complete-intersection dim CI_p, a lower bound on dim R_p for
        every form: the ideal matrix's rank is largest on an open set of
        tuples of degree-(d-1) forms, which meets the open set of regular
        sequences (x_i^(d-1) is one), so no tuple has a larger rank."""
        return self._ci[p] if 0 <= p < len(self._ci) else 0

    def _check_columns(self, p: int) -> int:
        cols = monomial_count(self.n, p)
        if cols > IDEAL_MATRIX_COLUMN_LIMIT:
            raise SizeGuardExceeded(
                f"degree-{p} piece has {cols} monomials, over the "
                f"{IDEAL_MATRIX_COLUMN_LIMIT} limit")
        return cols

    def ideal_matrix(self, p: int) -> FieldMatrix:
        """Rows span the degree-p piece of the partials' ideal; columns are
        the degree-p monomials; the rank is at most C(n+p, n) - CI_p.  The
        rows are regenerated on every pass over them (they are cheap, the
        normal forms are what gets kept), so they are never all in memory at
        once."""
        cols = self._check_columns(p)
        rows = _IdealRows(self.n, p, p - (self.degree - 1), self.partials)
        return FieldMatrix(self.field.p, cols, rows, rank_bound=cols - self._ci_dim(p))

    def graded_dim(self, p: int) -> int:
        """dim R_p, from the one elimination of degree p in this ring (see
        `_step`); 0 in negative degree."""
        if p >= 0 and p not in self._pieces:
            self._step(p)
        return self._pieces[p][1].size if p >= 0 else 0

    def normal_forms(self, p: int) -> np.ndarray:
        """The C(n+p, n) x dim R_p array of the degree-p monomials' normal
        forms, in the basis of R_p that `quotient_basis(p)` lists.  Below
        degree d-1 the ideal is empty and this is the identity, built on
        each request rather than kept."""
        self.graded_dim(p)
        nf, basis = self._pieces[p]
        return np.eye(basis.size, dtype=np.int64) if nf is None else nf

    def _step(self, p: int) -> None:
        """Eliminate degree p once: from the relations of degree p-1 for
        p >= d, otherwise from the degree-p ideal matrix.  Either keeps the
        normal forms of the degree-p monomials (none below d-1, where they
        are the identity) and the columns of the basis monomials, and the
        stage; normal forms over ENGINE_BYTES_LIMIT are refused, kept or
        not."""
        self._check_columns(p)
        relation = p >= self.degree
        if relation:
            self.graded_dim(p - 1)  # the degree below is its own stage
        t0 = time.perf_counter()
        if relation:
            mat = self.relation_matrix(p - 1)
            nf, basis, rank = self._next_normal_forms(p - 1, mat)
        else:
            mat = self.ideal_matrix(p)
            e = rref(mat)
            _check_step_bytes(p, "ideal", 8 * e.ncols * (e.ncols - e.rank))
            nf = e.normal_forms() if p >= self.degree - 1 else None
            basis, rank = np.array(e.free_columns(), dtype=np.int64), e.rank
        self._pieces[p] = nf, basis
        self._stages[p] = {
            "degree": p, "route": "relation" if relation else "ideal",
            "shape": [mat.nrows, mat.ncols], "rows_read": mat.rows_read,
            "rank": rank, "dim": basis.size,
            "ms": round((time.perf_counter() - t0) * 1000, 3)}

    def relation_matrix(self, q: int) -> FieldMatrix:
        """The relations that give R_{q+1} from R_q, for q >= d-1.

        The ideal is generated in degree d-1, so I_{q+1} = S_1 I_q and
        R_{q+1} = (S_1 (x) R_q) / K, with K spanned by x_k (x) [m] -
        x_j (x) [m'] over the pairs x_k m = x_j m' of degree-q monomials.
        In the basis b_0..b_{f-1} of R_q that `normal_forms(q)` uses,
        x_k (x) b_i -> x_k b_i maps S_1 (x) R_q onto k^U_q, U_q the
        distinct products x_k b_i, and its kernel, spanned by the
        x_k (x) b - x_j (x) b' with x_k b = x_j b', lies in K.  So the
        image of K gives R_{q+1} = k^U_q / K: one column per product in
        U_q, in descending degrevlex order (x0 > ... > xn), and one row per
        consecutive pair of representations of a degree-(q+1) monomial, and
        dim R_{q+1} = |U_q| - rank.  That is at least CI_{q+1}, so the rank
        is at most |U_q| - CI_{q+1}, the matrix's rank bound.  |U_q| <=
        (n+1) f, the width with one column per pair (x_k, b_i), whose extra
        columns only add the relations that join coinciding products.

        rref's pivots are leftmost, so the free columns are the products
        that are no degrevlex leading monomial of I_{q+1}.  When the basis
        of R_q is its degrevlex standard monomials, U_q holds every standard
        monomial of degree q+1 (they are closed under division), so the
        basis of R_{q+1} is its degrevlex standard monomials in turn."""
        if q < self.degree - 1:
            raise ValueError(f"relations give degree q+1 only for q >= {self.degree - 1}")
        n, prime = self.n, self.field.p
        f = self.graded_dim(q)
        self._check_chain_bytes(q, f)
        order, pair, prods = _product_order(n, q)
        cols = prods.reshape(n + 1, -1)[:, self._pieces[q][1]].ravel()
        _, first, ucol = np.unique(_degrevlex_rank(n, q + 1)[cols], return_index=True,
                                   return_inverse=True)
        products = cols[first]
        rows = _RelationRows(self.normal_forms(q), products, ucol.reshape(n + 1, f),
                             order[:-1][pair], order[1:][pair], prime)
        return FieldMatrix(prime, products.size, rows,
                           rank_bound=products.size - self._ci_dim(q + 1))

    def _check_chain_bytes(self, q: int, f: int) -> None:
        """Refuse, before allocating, a chain step from dim R_q = f whose
        arrays would exceed ENGINE_BYTES_LIMIT: the relation rows, counted
        as 4 arrays of nrows x 2f (rref builds them 32 at a time, at most
        (n+1) f wide), T (at most (n+1) f x g), NF_{q+1} and the products
        that fill it (C(n+q+1, n) x g each), where g bounds dim R_{q+1}."""
        cols = monomial_count(self.n, q + 1)
        nrows = (self.n + 1) * monomial_count(self.n, q) - cols
        g = min((self.n + 1) * f, cols)
        _check_step_bytes(q + 1, "relation",
                          8 * (8 * nrows * f + (self.n + 1) * f * g + 2 * cols * g))

    def _next_normal_forms(self, q: int, rel: FieldMatrix) -> tuple[np.ndarray, np.ndarray, int]:
        """NF_{q+1}, the normal forms of the degree-(q+1) monomials, the
        columns of their basis monomials and the rank of rel, the relation
        matrix of degree q.

        With E = rref(rel), T = E.normal_forms() maps each product in U_q
        to R_{q+1} in the basis of E's free columns, so the normal form of
        a degree-(q+1) monomial x_k m is NF_q[m] @ T[ucol[k]], the rows of
        the products x_k b.  E's free columns are distinct products, so
        they are the new basis monomials."""
        prime, nf = self.field.p, self.normal_forms(q)
        m = nf.shape[0]
        er = rref(rel)
        t = er.normal_forms()
        order, pair, _ = _product_order(self.n, q)
        heads = order[np.concatenate([[True], ~pair])]  # first representations
        nf_next = np.empty((monomial_count(self.n, q + 1), t.shape[1]), dtype=np.int64)
        for k in range(self.n + 1):
            at = np.flatnonzero(heads // m == k)
            if at.size:
                nf_next[at] = matmul_modp(nf[heads[at] % m], t[rel.rows.ucol[k]], prime)
        return nf_next, rel.rows.products[list(er.free_columns())], er.rank

    def quotient_basis(self, p: int) -> tuple[Monomial, ...]:
        """The monomials whose classes are the basis of R_p that
        `normal_forms(p)` uses, in its column order: the standard monomials
        an ideal step's echelon leaves free, or the products x_k b a
        relation step's echelon leaves free, in descending degrevlex; for
        a form whose degree-d basis is its degrevlex standard monomials,
        every relation degree's basis is."""
        if p < 0:
            return ()
        self.graded_dim(p)
        mons = enumerate_monomials(self.n, p)
        return tuple(mons[j] for j in self._pieces[p][1])

    def known_dims(self) -> dict[int, int]:
        """The dims of the degrees this ring has eliminated, one per stage."""
        return {p: basis.size for p, (_, basis) in self._pieces.items()}

    def stages(self) -> list[dict]:
        """How each degree was obtained, in degree order: its route
        ("ideal" or "relation"), the shape of the matrix eliminated, the rows
        rref read, its rank, the dim and the wall time in ms."""
        return [self._stages[p] for p in sorted(self._stages)]

    def certify_smooth(self) -> bool:
        """True when the piece past the socle vanishes, which proves the
        partials form a regular sequence (smoothness) at this prime and,
        by rank semicontinuity, in characteristic zero for any lift.  The
        dim is kept, so asking again costs nothing."""
        return self.graded_dim(self.socle + 1) == 0

    def hilbert_function(self) -> tuple[int, ...]:
        """dim R_p for p = 0..socle+1.  For a certified-smooth ring this
        must coincide with the complete-intersection series; any deviation
        is raised as an internal error."""
        dims = tuple(self.graded_dim(p) for p in range(self.socle + 2))
        if self.certify_smooth():
            expected = tuple(ci_hilbert_coefficients(self.n, self.degree)) + (0,)
            if dims != expected:
                raise HilbertMismatch(
                    f"certified smooth but dims {dims} != series {expected}")
        return dims


@functools.lru_cache(maxsize=None)
def _degrevlex_rank(n: int, p: int) -> np.ndarray:
    """The position of each degree-p monomial column in descending degrevlex
    order (x0 > ... > xn).  On one degree that is the ascending order of the
    reversed exponents (e_n, ..., e_0), so one mixed-radix key with x_n most
    significant sorts it.  Kept per (n, p) and read-only."""
    mons = np.array(enumerate_monomials(n, p), dtype=np.int64).reshape(-1, n + 1)
    rank = np.empty(len(mons), dtype=np.int64)
    rank[np.argsort(mons @ (p + 1) ** np.arange(n + 1, dtype=np.int64))] = np.arange(len(mons))
    rank.setflags(write=False)
    return rank


@functools.lru_cache(maxsize=None)
def _product_order(n: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The products x_k * m of every variable k and degree-q monomial m, as
    positions t = k * C(n+q, n) + m ordered by the column of the product (a
    stable sort, so k ascends within one product), the mask of the
    positions whose product equals the next one's, and the column of the
    product at each position.  Kept per (n, q) and read-only."""
    keys = monomial_keys(n, q + 1)
    prods = keys.columns((keys.of(enumerate_monomials(n, q)) + keys.weights[:, None]).ravel())
    order = np.argsort(prods, kind="stable")
    pair = prods[order[1:]] == prods[order[:-1]]
    for a in (order, pair, prods):
        a.setflags(write=False)
    return order, pair, prods


def _check_step_bytes(p: int, route: str, need: int) -> None:
    if need > ENGINE_BYTES_LIMIT:
        raise SizeGuardExceeded(
            f"degree-{p} {route} step needs {need} bytes, over the {ENGINE_BYTES_LIMIT} limit")


def fermat_ring(n: int, d: int, field: PrimeField) -> JacobianRing:
    one = {tuple(d if j == i else 0 for j in range(n + 1)): 1 for i in range(n + 1)}
    return JacobianRing(HomogeneousForm.from_terms(n, d, one, field))
