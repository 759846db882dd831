"""Reference Gauss-Jordan over Z/p for the tests: sparse row dicts and
Python integers, any modulus.  exactla.rref is a batched form of this
algorithm with other storage and arithmetic; the reduced echelon form is
unique, so both must return the same one."""

import numpy as np

from varcert.exactla import EchelonResult, FieldMatrix


def rref_sparse(mat: FieldMatrix) -> EchelonResult:
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
    free = [j for j in range(mat.ncols) if j not in piv]
    block = np.array([[piv[c].get(j, 0) for j in free] for c in pivots],
                     dtype=np.int64).reshape(len(pivots), len(free))
    return EchelonResult(p, mat.ncols, pivots, block)
