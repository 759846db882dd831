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
distinct product monomial gives degree q+1, smooth form or not
(Matrix-F5's incremental step, Bardet-Faugere-Salvy 2015, with F4's
monomial-indexed columns, Faugere 1999).  Its echelon yields T, the normal
forms of those products in a basis of products x_k b of R_{q+1}, and with
it the multiplication maps M_k = T[ucol[k]] by each variable from R_q:
that is what a relation degree keeps, with its basis monomials.  Any other
degree-(q+1) monomial x_k m gets its normal form NF_q[m] @ M_k when the
next step, a multiplication map or a caller first asks for it, composed
through the degrees below and kept (FGLM's multiplication matrices,
Faugere-Gianni-Lazard-Mora 1993); a relation step asks for those of the
monomials in the rows it has read, reading ahead up to twice as many
rows.  An ideal step keeps the normal forms of all its monomials and its
basis, the standard monomials its echelon leaves free.  Degrees up to d-1
are ideal steps, the last of them the n+1 partials; the chain starts at
d-1 and runs up to socle+1, whose relation matrix is at most n+1 columns
wide.  The relation matrices order their columns by descending
degrevlex, so each relation degree's basis is its degrevlex standard
monomials, the order in which generic initial ideals behave best
(Bayer-Stillman 1987), and the products of a basis stay few.  A relation
matrix leads with a known row for each product x_k b that has a divisor
outside that basis: its column is a leading monomial of the ideal, and the
row leads there with 1, so rref takes it as a pivot row with no search (the
known-pivot split of F4 Macaulay matrices, Faugere-Lachartre 2010).  The
complete-intersection series bounds every rank from above, which lets the
elimination stop reading rows early, inside the known rows when every pivot
is known, as on a Fermat form.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, Optional

import numpy as np

from .exactla import (
    ENGINE_BYTES_LIMIT,
    ArrayRows,
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
    fermat_form,
    monomial_count,
    monomial_keys,
    partial_derivatives,
)

IDEAL_MATRIX_COLUMN_LIMIT = 2 * 10 ** 6
_FORM_CELLS = 1 << 20  # cells of the left factor of one normal-form product


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


class _RelationRows(RowArrays):
    """The rows x_k (x) [m] - x_j (x) [m'] of a relation matrix, one per
    pair of positions a = k * M + m, b = j * M + m' (M the number of
    degree-q monomials), x_k m = x_j m': the `known` rows first, then the
    consecutive pairs.  Its columns are the distinct products of a
    variable and a basis monomial of R_q, `products` in column order, and
    x_k (x) [m] is the normal form NF_q[m] of m in that basis (f columns) at
    the columns ucol[k] of the products x_k b_0..x_k b_{f-1}.  No two
    entries of one half share a column, but the two halves may, so a row is
    written into a dense block and its second half subtracted mod p; a row
    joining two basis monomials comes out empty.  Rows are built on each
    request as that block, which is what rref reads, and `forms` (the
    degree-q monomial columns -> their normal forms) is asked for the rows
    of the monomials in the leading rows, twice as many each time a batch
    passes those asked for, so the rows after rref's early stop are never
    built and the normal forms they read at most in part, while reading
    every row asks `forms` a logarithmic number of times."""

    def __init__(self, forms: Callable[[np.ndarray], np.ndarray], m: int, products: np.ndarray,
                 ucol: np.ndarray, a: np.ndarray, b: np.ndarray, p: int, known: int):
        self._forms, self._m, self._a, self._b, self._p = forms, m, a, b, p
        self.products, self.ucol, self.ncols = products, ucol, products.size
        self.known = known  # the leading rows that are known rows
        self._formed = 0  # the leading rows whose normal forms were asked for

    def __len__(self) -> int:
        return self._a.size

    def dense(self, lo: int, hi: int) -> np.ndarray:
        m, a, b = self._m, self._a[lo:hi], self._b[lo:hi]
        if hi > self._formed:
            end = min(self._a.size, max(hi, 2 * self._formed))
            self._forms(_distinct(np.concatenate([self._a[self._formed:end] % m,
                                                  self._b[self._formed:end] % m])))
            self._formed = end
        nf = self._forms(np.concatenate([a % m, b % m]))
        rows = np.arange(a.size)[:, None]
        block = np.zeros((a.size, self.ncols), dtype=np.int64)
        block[rows, self.ucol[a // m]] = nf[:a.size]
        second = rows, self.ucol[b // m]
        block[second] = (block[second] - nf[a.size:]) % self._p
        return block


class _NormalForms:
    """The normal forms, in the basis of R_p, of the degree-p monomials
    asked for so far: `at` maps each monomial column to its row of `rows`,
    -1 while it has none, and the first `size` rows are held (the buffer
    grows by a quarter when full), so only the rows asked for are kept.  An
    ideal step holds every row from the start.  A relation degree starts
    from T, the normal forms of the products U_{p-1} (the first `nu` rows),
    and `ucol`, the rows of T of the products x_k b of each variable and
    basis monomial of R_{p-1}: M_k = T[ucol[k]] is the multiplication map
    x_k: R_{p-1} -> R_p."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, count: int,
                 ucol: Optional[np.ndarray] = None):
        self.rows, self.ucol, self.nu = rows, ucol, rows.shape[0]
        self.size = self.nu
        self.at = np.full(count, -1, dtype=np.int64)
        self.at[cols] = np.arange(cols.size)

    def add(self, cols: np.ndarray, rows: np.ndarray) -> None:
        end = self.size + cols.size
        if end > self.rows.shape[0]:
            grown = np.empty((min(max(self.rows.shape[0] * 5 // 4, end), self.at.size),
                              self.rows.shape[1]), dtype=np.int64)
            grown[:self.size] = self.rows[:self.size]
            self.rows = grown
        self.rows[self.size:end] = rows
        self.at[cols] = np.arange(self.size, end)
        self.size = end


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
        # degree -> (the normal forms of its monomials, or None for the
        # identity below d-1, and the columns of its basis monomials)
        self._pieces: dict[int, tuple[Optional[_NormalForms], np.ndarray]] = {}
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

    def _partials_matrix(self) -> FieldMatrix:
        """The degree-(d-1) ideal matrix, the only one a ring eliminates: a
        row per partial, a column per degree-(d-1) monomial in the order of
        monomial_keys, which fixes bases and witnesses; its rank is
        at most C(n+d-1, n) - CI_{d-1}."""
        p = self.degree - 1
        keys, cols = monomial_keys(self.n, p), monomial_count(self.n, p)
        rows = np.zeros((self.n + 1, cols), dtype=np.int64)
        for i, f in enumerate(self.partials):
            rows[i, keys.columns(keys.of(list(f.terms)))] = list(f.terms.values())
        return FieldMatrix(self.field.p, ArrayRows(rows), rank_bound=cols - self._ci_dim(p))

    def graded_dim(self, p: int) -> int:
        """dim R_p, from the one elimination of degree p in this ring (see
        `_step`); 0 in negative degree."""
        if p >= 0 and p not in self._pieces:
            self._step(p)
        return self._pieces[p][1].size if p >= 0 else 0

    def normal_forms(self, p: int, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """The normal forms of the degree-p monomials at the columns cols
        (all C(n+p, n) by default), one row each, in the basis of R_p that
        `quotient_basis(p)` lists.  Below degree d-1 the ideal is empty and
        these are rows of the identity, built on each request.  A relation
        degree holds the rows of the products x_k b of its basis step and
        forms any other x_k m on first request as NF_{p-1}[m] @ T[ucol[k]]
        (k the least variable dividing it), asking degree p-1 for the rows of
        those m, and keeps it: one exact product per request and degree
        (Faugere-Gianni-Lazard-Mora 1993), or per _FORM_CELLS cells of its
        left factor on a large request."""
        self.graded_dim(p)
        nf, basis = self._pieces[p]
        cols = (np.arange(monomial_count(self.n, p)) if cols is None
                else np.asarray(cols, dtype=np.int64))
        if nf is None:
            out = np.zeros((cols.size, basis.size), dtype=np.int64)
            out[np.arange(cols.size), cols] = 1
            return out
        held = nf.at[cols]
        if cols.size and held.min() >= 0:
            return nf.rows[held]
        miss, m = _distinct(cols[held < 0]), monomial_count(self.n, p - 1)
        step = max(1, _FORM_CELLS // max(1, nf.nu))
        for lo in range(0, miss.size, step):
            part = miss[lo:lo + step]
            order, _, _, starts = _product_order(self.n, p - 1)
            first = order[starts[part]]  # x_k m, k least
            a = np.zeros((part.size, nf.nu), dtype=np.int64)
            a[np.arange(part.size)[:, None], nf.ucol[first // m]] = \
                self.normal_forms(p - 1, first % m)
            nf.add(part, matmul_modp(a, nf.rows[:nf.nu], self.field.p))
        return nf.rows[nf.at[cols]]

    def _step(self, p: int) -> None:
        """Eliminate degree p once: from the relations of degree p-1 for
        p >= d, and at d-1 from the ideal matrix of the n+1 partials, by one
        path.  rref's normal forms give those of the monomials the matrix's
        columns stand for (every degree-p monomial, or the products U_{p-1},
        from whose T and ucol `normal_forms` forms the rest on request), and
        its free columns the basis monomials; the stage is kept too.  Below
        d-1 the ideal is empty, so nothing is eliminated: the basis is every
        monomial, and the normal forms are the identity, kept as none.
        Normal forms over ENGINE_BYTES_LIMIT are refused, kept or not."""
        cols = self._check_columns(p)
        relation = p >= self.degree
        route = "relation" if relation else "ideal"
        if relation:
            self.graded_dim(p - 1)  # the degree below is its own stage
        t0 = time.perf_counter()
        if p < self.degree - 1:
            _check_step_bytes(p, route, 8 * cols * cols)
            nf, basis, rank = None, np.arange(cols, dtype=np.int64), 0
            shape, read, known = [0, cols], 0, 0
        else:
            mat = self.relation_matrix(p - 1) if relation else self._partials_matrix()
            # the monomial column each column of mat stands for
            heads, ucol, known = ((mat.rows.products, mat.rows.ucol, mat.rows.known) if relation
                                  else (np.arange(cols), None, 0))
            e = rref(mat)
            _check_step_bytes(p, route, 8 * e.ncols * (e.ncols - e.rank))
            nf = _NormalForms(e.normal_forms(), heads, cols, ucol)
            basis, rank = heads[list(e.free_columns())], e.rank
            shape, read = [mat.nrows, mat.ncols], mat.rows_read
        self._pieces[p] = nf, basis
        self._stages[p] = {
            "degree": p, "route": route,
            "shape": shape, "rows_read": read, "known": known, "rank": rank, "dim": basis.size,
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
        basis of R_{q+1} is its degrevlex standard monomials in turn.

        The rows start with one known row per product u = x_k b in U_q
        that has a divisor u/x_j outside the basis, j the largest such
        index, in ascending degrevlex of u: the pair row
        x_k (x) [b] - x_j (x) [u/x_j], the sum of the consecutive pair rows
        between its two positions, so the row space, the rank bound and
        the echelon stay those of the pairs.  Its first half is 1 at u,
        since [b] is a unit vector.  When the basis is the degrevlex normal
        set, NF_q[u/x_j] holds only standard monomials b' below u/x_j
        (u/x_j - NF_q[u/x_j] lies in I_q, so its leading monomial is not
        standard: it is u/x_j), so every x_j b' is below u and the row
        leads with 1 at u: u is a leading monomial of I_{q+1}, known before
        any elimination, and no known row has an entry at a later one's
        column.  rref takes such rows as pivot rows without a search
        (exactla._gauss_jordan).  At q = d-1 the basis comes from the ideal
        step's columns, so a known row may lead elsewhere there; rref then
        finds its pivot like any other row's."""
        if q < self.degree - 1:
            raise ValueError(f"relations give degree q+1 only for q >= {self.degree - 1}")
        n, prime = self.n, self.field.p
        f = self.graded_dim(q)
        self._check_chain_bytes(q, f)
        order, pair, prods, starts = _product_order(n, q)
        basis, m = self._pieces[q][1], monomial_count(n, q)
        cols = prods.reshape(n + 1, -1)[:, basis].ravel()
        _, first, ucol = np.unique(monomial_keys(n, q + 1).degrevlex[cols], return_index=True,
                                   return_inverse=True)
        products = cols[first]
        # per product column, the last position x_j m in product order (j
        # largest) whose m is outside the basis, or -1: the known rows, in
        # ascending degrevlex of their products
        outside = np.ones(m, dtype=bool)
        outside[basis] = False
        last = np.maximum.reduceat(np.where(outside[order % m], np.arange(order.size), -1),
                                   starts)[products]
        known = np.flatnonzero(last >= 0)[::-1]
        a = np.concatenate([first[known] // f * m + basis[first[known] % f], order[:-1][pair]])
        b = np.concatenate([order[last[known]], order[1:][pair]])
        rows = _RelationRows(functools.partial(self.normal_forms, q), m, products,
                             ucol.reshape(n + 1, f), a, b, prime, known.size)
        return FieldMatrix(prime, rows, rank_bound=products.size - self._ci_dim(q + 1))

    def _check_chain_bytes(self, q: int, f: int) -> None:
        """Refuse, before allocating, a chain step from dim R_q = f whose
        arrays would exceed ENGINE_BYTES_LIMIT: the relation rows, counted
        as 4 arrays of nrows x 2f (rref builds them 32 at a time, at most
        (n+1) f wide), T (at most (n+1) f x g), NF_{q+1} and the products
        that fill it (C(n+q+1, n) x g each), where g bounds dim R_{q+1}.
        NF_{q+1} is now formed only for the monomials read, so the last two
        terms overcount; they stay so that the same jobs are refused.  The
        known rows add two index arrays of at most (n+1) f entries, which
        the overcount covers, so the refusals are unchanged."""
        cols = monomial_count(self.n, q + 1)
        nrows = (self.n + 1) * monomial_count(self.n, q) - cols
        g = min((self.n + 1) * f, cols)
        _check_step_bytes(q + 1, "relation",
                          8 * (8 * nrows * f + (self.n + 1) * f * g + 2 * cols * g))

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
        return tuple(map(tuple, monomial_keys(self.n, p).exponents(self._pieces[p][1]).tolist()))

    def stages(self) -> list[dict]:
        """How each degree was obtained, in degree order: its route
        ("ideal" or "relation"), the shape of the matrix eliminated, the rows
        rref read, the known rows it leads with (0 on an ideal step), its
        rank, the dim and the wall time in ms."""
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
def _product_order(n: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The products x_k * m of every variable k and degree-q monomial m, as
    positions t = k * C(n+q, n) + m ordered by the column of the product (a
    stable sort, so k ascends within one product), the mask of the
    positions whose product equals the next one's, the column of the
    product at each position, and where in that order each degree-(q+1)
    monomial column's positions start (the first is its x_k m with k
    least).  Kept per (n, q) and read-only."""
    keys = monomial_keys(n, q + 1)
    prods = keys.columns((keys.of(monomial_keys(n, q).exponents()) + keys.weights[:, None]).ravel())
    order = np.argsort(prods, kind="stable")
    pair = prods[order[1:]] == prods[order[:-1]]
    starts = np.flatnonzero(np.concatenate([[True], ~pair]))
    for a in (order, pair, prods, starts):
        a.setflags(write=False)
    return order, pair, prods, starts


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending.  np.unique without
    return arrays checks for a masked array first, which imports numpy.ma
    (about 1 MB and 17 ms) on its first call."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if a.size else a


def _check_step_bytes(p: int, route: str, need: int) -> None:
    if need > ENGINE_BYTES_LIMIT:
        raise SizeGuardExceeded(
            f"degree-{p} {route} step needs {need} bytes, over the {ENGINE_BYTES_LIMIT} limit")


def fermat_ring(n: int, d: int, field: PrimeField) -> JacobianRing:
    return JacobianRing(fermat_form(n, d, field))
