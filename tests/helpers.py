"""Helpers only the tests call: matrices from dict rows and their product
with a vector, a writer for the matrix dump format that `rank-oracle`
reads, the injectivity-descent property behind C7, and the relation matrix
with one column per pair (variable, basis monomial)."""

from typing import Iterable, Sequence

import numpy as np

from varcert.exactla import CsrRows, FieldMatrix
from varcert.jacobian import JacobianRing
from varcert.lefschetz import mult_map
from varcert.polyring import HomogeneousForm, Monomial, enumerate_monomials


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
    return FieldMatrix(p, ncols, CsrRows(np.array(indptr, dtype=np.int64),
                                         np.array(cols, dtype=np.intp),
                                         np.array(vals, dtype=np.int64)))


def mul_vector(mat: FieldMatrix, v: Sequence[int]) -> list[int]:
    """mat @ v mod p, in Python ints, one dict row at a time."""
    return [sum(c * v[j] for j, c in r.items()) % mat.p for r in mat.rows]


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
