"""The uint64 row-insertion engine for primes above 2^23: its Shoup
arithmetic, exactness at the tier-boundary primes against the sparse
reference, its stop at full column rank, its pre-flight size guard and its
memory budget."""

import random
import tracemalloc

import numpy as np
import pytest

from rref_reference import rref_sparse
from varcert.exactla import (
    FLOAT_TIER_MAX,
    CsrRows,
    FieldMatrix,
    SizeGuardExceeded,
    _Zp64,
    dense_rank_oracle,
    rref,
)
from varcert.jacobian import JacobianRing
from varcert.polyring import HomogeneousForm, PrimeField, enumerate_monomials

P62 = (1 << 62) - 57
# 8388593 is the last prime below 2^23 (float tier), 8388617 the first above
BOUNDARY_PRIMES = [8388593, 8388617, (1 << 31) - 1, (1 << 61) - 1, P62]


def seeded_ring(n, d, prime, seed):
    rng = random.Random(seed)
    coeffs = {m: rng.randint(-9, 9) for m in enumerate_monomials(n, d)}
    form = HomogeneousForm.from_terms(n, d, {m: c for m, c in coeffs.items() if c},
                                      PrimeField(prime))
    return JacobianRing(form)


def assert_same_echelon(mat):
    got, ref = rref(mat), rref_sparse(mat)
    assert got.pivots == ref.pivots
    assert got.free_columns() == ref.free_columns()
    for k in range(ref.rank):
        assert got.row_as_dict(k) == ref.row_as_dict(k)
    return got


@pytest.mark.parametrize("p", [8388617, (1 << 31) - 1, P62, (1 << 63) - 25])
def test_shoup_mulmod_and_split_sum_match_python_ints(p):
    zp = _Zp64(p)
    rng = random.Random(p)
    vals = [0, 1, 2, p - 2, p - 1] + [rng.randrange(p) for _ in range(40)]
    w = np.array(vals, dtype=np.uint64)
    assert zp.pre(w).tolist() == [(v << 64) // p for v in vals]
    # the multiplicand may be any 64-bit word, not only a residue
    a = np.array(vals + [(1 << 64) - 1, 1 << 63], dtype=np.uint64)
    prod = zp.mul(a[:, None], w[None, :], zp.pre(w)[None, :])
    assert prod.tolist() == [[x * y % p for y in vals] for x in a.tolist()]
    terms = np.array([vals, [p - 1] * len(vals), vals[::-1]] + [[p - 1] * len(vals)] * 60,
                     dtype=np.uint64)
    assert zp.colsum(terms).tolist() == [sum(col) % p for col in terms.T.tolist()]


def boundary_matrix(rng, p, r, c, density):
    """r x c with rank at most k < min(r, c): random base rows, combinations
    of two or three of them, duplicates and zero rows, shuffled."""
    k = rng.randrange(min(r, c) // 3, min(r, c) - 1)
    base = [{j: rng.randrange(1, p) for j in range(c) if rng.random() < density}
            for _ in range(k)]
    rows = list(base)
    while len(rows) < r:
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3:
            rows.append(dict(rng.choice(base)))
        else:
            comb: dict[int, int] = {}
            for src in rng.sample(base, rng.choice([2, 3])):
                f = rng.randrange(1, p)
                for j, v in src.items():
                    comb[j] = (comb.get(j, 0) + f * v) % p
            rows.append(comb)
    rng.shuffle(rows)
    return FieldMatrix.from_rows(p, c, rows), k


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_boundary_primes_match_sparse_reference_and_oracle(p):
    assert BOUNDARY_PRIMES[0] <= FLOAT_TIER_MAX < BOUNDARY_PRIMES[1]
    rng = random.Random(p)
    for r, c, density in [(65, 65, 0.5), (300, 120, 0.1), (90, 300, 0.03), (200, 200, 0.015)]:
        mat, k = boundary_matrix(rng, p, r, c, density)
        e = assert_same_echelon(mat)
        assert e.rank <= k < min(r, c)
        assert dense_rank_oracle(mat) == e.rank


def test_macaulay_matrices_match_sparse_reference():
    ring = seeded_ring(3, 4, P62, 34)
    for degree in (ring.socle, ring.socle + 1):
        mat = ring.ideal_matrix(degree)
        e = assert_same_echelon(mat)
        assert dense_rank_oracle(mat) == e.rank
        assert mat.ncols - e.rank == (1 if degree == ring.socle else 0)


class RecordingRows(CsrRows):
    """CsrRows that log every (lo, hi) the engine asks for."""

    def __init__(self, rows, p):
        full = CsrRows.from_dicts(rows, p)
        super().__init__(full.indptr, full.cols, full.vals)
        self.asked = []

    def csr(self, lo, hi):
        self.asked.append((lo, hi))
        return super().csr(lo, hi)


def test_rows_after_full_column_rank_are_not_read():
    rng = random.Random(40)
    c = 40
    # upper triangular with a nonzero diagonal, so the first c rows are
    # independent; the rest are combinations of them and random rows
    head = [{j: rng.randrange(1, P62) for j in range(i, c) if j == i or rng.random() < 0.3}
            for i in range(c)]
    tail = []
    for _ in range(2000):
        row = {j: rng.randrange(P62) for j in range(c) if rng.random() < 0.2}
        for src in rng.sample(head, 2):
            f = rng.randrange(1, P62)
            for j, v in src.items():
                row[j] = (row.get(j, 0) + f * v) % P62
        tail.append({j: v for j, v in row.items() if v})
    rows = head + tail
    recorded = RecordingRows(rows, P62)
    e = rref(FieldMatrix(P62, len(rows), c, recorded))
    ref = rref_sparse(FieldMatrix.from_rows(P62, c, rows))
    assert e.pivots == ref.pivots == tuple(range(c))
    for k in range(c):
        assert e.row_as_dict(k) == ref.row_as_dict(k) == {k: 1}
    assert recorded.asked and all(lo < c for lo, _ in recorded.asked)


def test_block_size_guard_refuses_before_allocating(monkeypatch):
    n = 40000
    mat = FieldMatrix(P62, n, n, [{i: 1} for i in range(n)])
    # without the guard the engine would go on to fill a 3.2 GB block
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("block allocated"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardExceeded):
            rref(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_smoothness_echelon_memory_budget():
    # the 2475 x 1365 socle+1 matrix of a (4,4) form: the block peaks near
    # 3.8 MB; holding all rows at once adds about 2.9 MB, and a dense
    # rank x ncols buffer alone would take 15 MB
    ring = seeded_ring(4, 4, P62, 44)
    tracemalloc.start()
    try:
        e = ring.echelon(ring.socle + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.rank, e.ncols) == (1365, 1365)
    assert peak < 6 * 10 ** 6
