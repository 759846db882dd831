"""Graded pieces of Jacobian rings R = k[x_0..x_n]/(dF/dx_0..dF/dx_n).

A graded piece R_p is presented as the cokernel of the ideal matrix whose
rows are the monomial multiples of the partials, expressed in the fixed
monomial basis of degree p.  Ranks over Z/p certify dimensions; a vanishing
piece one past the socle degree (n+1)(d-2) certifies that the partials are
a regular sequence, hence that the form is smooth and R is the complete
intersection quotient with the standard Hilbert series.

That vanishing is read off the socle echelon where it can be: in every
degree above d-1 the ideal is S_1 times its piece one degree lower, so
R_{socle+1} is (n+1) copies of R_socle modulo the relations x_k m = x_j m',
and a relation matrix (n+1) dim R_socle columns wide, n+1 for a smooth
form, has full rank exactly when R_{socle+1} = 0.  Otherwise the socle+1
ideal matrix is eliminated as for any other degree.
"""

from __future__ import annotations

import math

import numpy as np

from .exactla import CsrRows, EchelonResult, FieldMatrix, RowArrays, SizeGuardExceeded, rref
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


class DimConflict(Exception):
    """Two values for one graded dimension disagree: an installed one and
    the one the echelon of the same degree gives, or two cached ones."""


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
        self._installed: dict[int, int] = {}
        self._ech: dict[int, EchelonResult] = {}
        self._smooth: bool | None = None

    def ideal_matrix(self, p: int) -> FieldMatrix:
        """Rows span the degree-p piece of the partials' ideal; columns are
        the degree-p monomials.  The rows are regenerated on every pass over
        them (they are cheap, the echelon is what gets cached), so they are
        never all in memory at once."""
        cols = monomial_count(self.n, p)
        if cols > IDEAL_MATRIX_COLUMN_LIMIT:
            raise SizeGuardExceeded(
                f"degree-{p} piece has {cols} monomials, over the "
                f"{IDEAL_MATRIX_COLUMN_LIMIT} limit")
        rows = _IdealRows(self.n, p, p - (self.degree - 1), self.partials)
        return FieldMatrix(self.field.p, len(rows), cols, rows)

    def echelon(self, p: int) -> EchelonResult:
        """Reduced echelon form of the degree-p ideal matrix, computed once
        and kept; raises DimConflict when it contradicts an installed dim.
        Degree socle+1 needs no ideal matrix when the socle's relation
        matrix proves it vanishes."""
        if p not in self._ech:
            e = self._vanishing_past_socle() if p == self.socle + 1 else None
            if e is None:
                e = rref(self.ideal_matrix(p))
            dim = e.ncols - e.rank
            if self._installed.get(p, dim) != dim:
                raise DimConflict(
                    f"degree {p}: cached dim {self._installed[p]} but "
                    f"elimination gives {dim}")
            self._ech[p] = e
        return self._ech[p]

    def relation_matrix(self, q: int) -> FieldMatrix:
        """The relations that give R_{q+1} from R_q, for q >= d-1.

        The ideal is generated in degree d-1, so I_{q+1} = S_1 I_q and
        R_{q+1} = (S_1 (x) R_q) / K, with K spanned by x_k (x) [m] -
        x_j (x) [m'] over the pairs x_k m = x_j m' of degree-q monomials.
        Written in the basis of R_q that echelon(q) gives, column k*f + i
        for x_k (x) basis vector i (f = dim R_q), one row per consecutive
        pair of representations of a degree-(q+1) monomial, these span K, so
        dim R_{q+1} = (n+1) f - rank."""
        if q < self.degree - 1:
            raise ValueError(f"relations give degree q+1 only for q >= {self.degree - 1}")
        n, prime = self.n, self.field.p
        e = self.echelon(q)
        f = e.ncols - e.rank
        # normal form of each degree-q monomial in the basis of R_q: a unit
        # vector at a free column, minus the row's free entries at a pivot
        nf = np.zeros((e.ncols, f), dtype=np.int64)
        nf[list(e.free_columns()), np.arange(f)] = 1
        nf[list(e.pivots)] = -e.free_block() % prime
        # x_k * m for every variable k and degree-q monomial m, at position
        # t = k * e.ncols + m; a stable sort by product puts the
        # representations of one degree-(q+1) monomial next to each other,
        # k ascending
        keys = monomial_keys(n, q + 1)
        prods = keys.columns((keys.of(enumerate_monomials(n, q)) + keys.weights[:, None]).ravel())
        order = np.argsort(prods, kind="stable")
        pair = prods[order[1:]] == prods[order[:-1]]
        a, b = order[:-1][pair], order[1:][pair]
        span = np.arange(f)
        cols = np.concatenate([(a // e.ncols)[:, None] * f + span,
                               (b // e.ncols)[:, None] * f + span], axis=1)
        vals = np.concatenate([nf[a % e.ncols], -nf[b % e.ncols] % prime], axis=1)
        nonzero = vals != 0
        indptr = np.zeros(a.size + 1, dtype=np.int64)
        np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
        return FieldMatrix(prime, a.size, (n + 1) * f,
                           CsrRows(indptr, cols[nonzero], vals[nonzero]))

    def _vanishing_past_socle(self) -> EchelonResult | None:
        """The degree-(socle+1) echelon, the identity, when the socle's
        relation matrix has full rank, which proves R_{socle+1} = 0; None
        when it has not, or when the relations are no smaller than the
        ideal matrix.  A smooth form has dim R_socle = 1, so its relation
        matrix has n+1 columns against C(n+socle+1, n)."""
        q = self.socle
        ncols = monomial_count(self.n, q + 1)
        if q < self.degree - 1:
            return None
        e = self.echelon(q)
        if (self.n + 1) * (e.ncols - e.rank) >= ncols:
            return None
        rel = self.relation_matrix(q)
        if rref(rel).rank < rel.ncols:
            return None
        return EchelonResult.identity(self.field.p, ncols)

    def graded_dim(self, p: int) -> int:
        """dim R_p: an installed dim if there is one, otherwise read off
        echelon(p), which is kept for later use; 0 in negative degree."""
        if p < 0:
            return 0
        if p in self._installed:
            return self._installed[p]
        e = self.echelon(p)
        return e.ncols - e.rank

    def quotient_basis(self, p: int) -> tuple[Monomial, ...]:
        """Monomials at the non-pivot columns of the ideal matrix echelon;
        their classes are a basis of R_p."""
        if p < 0:
            return ()
        e = self.echelon(p)
        mons = enumerate_monomials(self.n, p)
        return tuple(mons[j] for j in e.free_columns())

    def set_dim(self, p: int, dim: int) -> None:
        """Install an externally cached dimension (trusted, e.g. from a
        previous run at the same prime) that spares eliminating degree p."""
        self._installed[p] = dim

    def known_dims(self) -> dict[int, int]:
        return {**self.computed_dims(), **self._installed}

    def computed_dims(self) -> dict[int, int]:
        """Dims this ring eliminated itself, without the installed ones."""
        return {p: e.ncols - e.rank for p, e in self._ech.items()
                if p not in self._installed}

    def certify_smooth(self) -> bool:
        """True when the piece past the socle vanishes, which proves the
        partials form a regular sequence (smoothness) at this prime and,
        by rank semicontinuity, in characteristic zero for any lift."""
        if self._smooth is None:
            self._smooth = self.graded_dim(self.socle + 1) == 0
        return self._smooth

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


def fermat_ring(n: int, d: int, field: PrimeField) -> JacobianRing:
    one = {tuple(d if j == i else 0 for j in range(n + 1)): 1 for i in range(n + 1)}
    return JacobianRing(HomogeneousForm.from_terms(n, d, one, field))
