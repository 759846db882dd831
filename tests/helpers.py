"""Helpers only the tests call: a writer for the matrix dump format that
`rank-oracle` reads, and the injectivity-descent property behind C7."""

from varcert.exactla import FieldMatrix
from varcert.jacobian import JacobianRing
from varcert.lefschetz import mult_map
from varcert.polyring import HomogeneousForm


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
