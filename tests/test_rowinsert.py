"""rref's batched elimination and its exact product: float-quotient
arithmetic, the one-GEMM and limb-split products, exactness at the limb- and
word-boundary primes against the sparse reference, dense row reads, the stop
at the rank bound, the pre-flight size guard, the residual check and the
memory budget."""

import random
import tracemalloc

import numpy as np
import pytest

from helpers import from_rows, ideal_matrix, reduce_rows
from rref_reference import rref_sparse
from varcert import exactla
from varcert.exactla import (
    _CHUNK,
    _LIMB,
    _ROWS_PER_READ,
    CsrRows,
    EchelonResult,
    FieldMatrix,
    SizeGuardExceeded,
    _Zp64,
    dense_rank_oracle,
    matmul_modp,
    rref,
)
from varcert.jacobian import JacobianRing
from varcert.polyring import HomogeneousForm, PrimeField, enumerate_monomials

P62 = (1 << 62) - 57
# the primes on either side of 2^21 and 2^42, where residues take one more
# 21-bit limb in matmul_modp, of 2^23 and of 2^29; on either side of the
# points where k = (2^64 - p) // (p (p-1)), the uint64 updates _gauss_jordan
# lets an entry take between reductions, falls below 32 (759250111 has
# k = 32, so a 32-row batch is reduced at most once, and 759250133 has 31)
# and below 2 (3037000493 has k = 2, 3037000507 has 1); 2^31 - 1 (k = 4);
# and the largest prime below 2^32, where p (p-1) nearly fills 64 bits
DEFER_LAST, DEFER_NEXT = 536870909, 536870923
K32_LAST, K32_NEXT = 759250111, 759250133
K2_LAST, K1_FIRST = 3037000493, 3037000507
WORD_LAST = 4294967291  # the largest prime below 2^32
BOUNDARY_PRIMES = [2097143, 2097169, 8388593, 8388617, DEFER_LAST, DEFER_NEXT, K32_LAST,
                   K32_NEXT, (1 << 31) - 1, K2_LAST, K1_FIRST, WORD_LAST, 4398046511093,
                   4398046511119, (1 << 61) - 1, P62]


def updates_per_reduction(p):
    """k: with entries below p and updates of at most p (p-1), an entry
    takes k updates in uint64 before it must be reduced."""
    return ((1 << 64) - p) // (p * (p - 1))


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
    assert np.array_equal(got.free_block(), ref.free_block())
    return got


@pytest.mark.parametrize("p", [8388617, (1 << 31) - 1, (1 << 32) + 15, P62, (1 << 63) - 25])
def test_shoup_mulmod_and_split_sum_match_python_ints(p):
    # add and sub of _Zp64 against Python ints (the name is kept so that the
    # test's ids stay stable)
    zp = _Zp64(p)
    rng = random.Random(p)
    vals = [0, 1, 2, p - 2, p - 1] + [rng.randrange(p) for _ in range(40)]
    w = np.array(vals, dtype=np.uint64)
    assert zp.add(w[:, None], w[None, :]).tolist() == [[(x + y) % p for y in vals]
                                                       for x in vals]
    assert zp.sub(w[:, None], w[None, :]).tolist() == [[(x - y) % p for y in vals]
                                                       for x in vals]


EXACT_PRIMES = [2097143, 2097169, 8388593, 8388617, (1 << 31) - 1, 4398046511093,
                4398046511119, P62, (1 << 63) - 25]


def edge_values(rng, p, shape):
    """Entries drawn from {0, 1, p-1} and uniform residues, half each."""
    a = np.array([rng.choice([0, 1, p - 1]) if rng.random() < 0.5 else rng.randrange(p)
                  for _ in range(shape[0] * shape[1])], dtype=np.uint64)
    return a.reshape(shape)


def python_matmul(a, b, p):
    cols = b.T.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a.tolist()]


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_block_product_matches_python_ints(p, monkeypatch):
    rng = random.Random(p + 1)
    # inner sizes past one GEMM chunk (at most 2048 here) and outputs larger
    # than one _CHUNK
    for m, k, w in [(1, 1, 1), (2, _CHUNK + 500, 3), (90, 7, 100), (5, 130, 70)]:
        a, b = edge_values(rng, p, (m, k)), edge_values(rng, p, (k, w))
        expect = python_matmul(a, b, p)
        assert matmul_modp(a, b, p).tolist() == expect
        assert matmul_modp(a.view(np.int64), b.view(np.int64), p).tolist() == expect
    ones = np.full((3, _CHUNK + 7), p - 1, dtype=np.int64)
    assert matmul_modp(ones, ones.T.copy(), p).tolist() == [[(_CHUNK + 7) % p] * 3] * 3
    # an empty product is zeros at once, without splitting a single limb
    monkeypatch.setattr(exactla, "_limbs", lambda x, nl: pytest.fail("limbs split"))
    for m, k, w in [(0, 3, 2), (2, 0, 3), (32, 27, 0), (1, 1, 0)]:
        a, b = edge_values(rng, p, (m, k)), edge_values(rng, p, (k, w))
        expect = python_matmul(a, b, p)
        got = matmul_modp(a, b, p)
        assert got.dtype == np.uint64 and got.tolist() == expect
        got = matmul_modp(a.view(np.int64), b.view(np.int64), p)
        assert got.dtype == np.int64 and got.tolist() == expect


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_reduce_block_and_vector_match_python_ints(p):
    # helpers.reduce_rows on an echelon with more than 64 pivots and a block
    # of edge values: the normal form of v is v - v[pivots] @ block at the
    # free columns (the name is kept so that the test's ids stay stable)
    rng = random.Random(p + 2)
    ncols, rank = 160, 100
    pivots = tuple(sorted(rng.sample(range(ncols), rank)))
    free = [j for j in range(ncols) if j not in pivots]
    e = EchelonResult(p, ncols, pivots, edge_values(rng, p, (rank, len(free))).view(np.int64))
    vecs = edge_values(rng, p, (12, ncols)).view(np.int64)
    blk = e.free_block().tolist()
    expect = []
    for v in vecs.tolist():
        out = [0] * ncols
        for j, col in enumerate(free):
            out[col] = (v[col] - sum(v[c] * blk[k][j] for k, c in enumerate(pivots))) % p
        expect.append(out)
    assert reduce_rows(e, vecs).tolist() == expect


def python_gauss_jordan(rows, p):
    """_gauss_jordan's reference in Python ints: each row in turn, if
    nonzero, clears its leading column from every other row; the pivot rows
    are normalized at the end."""
    rows = [[v % p for v in r] for r in rows]
    lead, found = [], []
    for i, r in enumerate(rows):
        j = next((j for j, v in enumerate(r) if v), None)
        if j is None:
            continue
        inv = pow(r[j], -1, p)
        for h, other in enumerate(rows):
            if h != i and other[j]:
                g = other[j] * inv % p
                rows[h] = [(x - g * y) % p for x, y in zip(other, r)]
        lead.append(j)
        found.append(i)
    return lead, [[v * pow(rows[i][j], -1, p) % p for v in rows[i]]
                  for i, j in zip(found, lead)]


def recording_reductions(y):
    """y viewed as an array that records its largest entry each time it, or
    a slice of it, is reduced in place; and the list of those entries."""
    seen = []

    class Recorded(np.ndarray):
        def __imod__(self, other):
            seen.append(int(self.max()))
            return super().__imod__(other)

    return y.view(Recorded), seen


@pytest.mark.parametrize("p", [DEFER_LAST, DEFER_NEXT, K32_LAST, K32_NEXT, (1 << 31) - 1,
                               K2_LAST, K1_FIRST, WORD_LAST])
def test_gauss_jordan_defers_reduction_below_its_bound(p):
    # below 2^32 an update adds (p - f) r, at most p (p-1), in uint64, and
    # the batch is reduced after every k updates.  k + 1 pivot rows
    # e_t + (p-1) e_T, then e_L + (p-1) e_T, which is 0 at every pivot and so
    # gains p (p-1) at T from each, then a row in their span that every
    # pivot has to clear: the entry at T reaches p - 1 + k p (p-1) before
    # the first reduction, and one more update would wrap it
    k = updates_per_reduction(p)
    assert k >= 1 and p - 1 + (k + 1) * p * (p - 1) >= 1 << 64
    rows = [[int(j == t) for j in range(k + 1)] + [0, p - 1] for t in range(k + 1)]
    rows.append([0] * (k + 1) + [1, p - 1])
    rows.append([1] * (k + 1) + [0, (k + 1) * (p - 1) % p])
    y, seen = recording_reductions(np.array(rows, dtype=np.uint64, order="F"))
    lead, new = exactla._gauss_jordan(_Zp64(p), y, len(rows))
    assert (lead, new.tolist()) == python_gauss_jordan(rows, p)
    assert max(seen) == p - 1 + k * p * (p - 1)
    # 32-row batches of all p-1 and of uniform entries, column-major as
    # rref passes them
    rng = random.Random(p)
    uniform = [[rng.randrange(p) for _ in range(48)] for _ in range(32)]
    for rows in ([[p - 1] * 48] * 32, uniform):
        y = np.array(rows, dtype=np.uint64, order="F")
        lead, new = exactla._gauss_jordan(_Zp64(p), y, len(rows))
        assert (lead, new.tolist()) == python_gauss_jordan(rows, p)


@pytest.mark.parametrize("p", [4294967311, 4398046511119, (1 << 61) - 1, P62, (1 << 63) - 25])
def test_gauss_jordan_float_quotient_updates_match_python_ints(p):
    # above 2^32 each update is reduced from a float64 quotient estimate, so
    # the batch stays in [0, p), at primes up to the largest allowed; in
    # row-major and in column-major order, which rref passes
    rng = random.Random(p)
    for order in "CFCF":
        uniform = [[rng.randrange(p) for _ in range(48)] for _ in range(32)]
        for rows in ([[p - 1] * 48] * 32, uniform):
            y = np.array(rows, dtype=np.uint64, order=order)
            lead, new = exactla._gauss_jordan(_Zp64(p), y, len(rows))
            assert (lead, new.tolist()) == python_gauss_jordan(rows, p)
            assert (y < p).all()
    # the first pivot row u, normalized to (u 2^31, u) v^-1 mod p from
    # float quotients, has four entries that make one half of that pair
    # (p +- 1)/2 mod p: their quotients lie within 1/(2p) of a half, where
    # the float64 estimate may round either way
    v = rng.randrange(2, p)
    halves = [(p + s) // 2 for s in (1, -1)]
    to_high = pow(1 << 31, -1, p)
    row = [v] + [h * v % p for h in halves] + [h * v * to_high % p for h in halves]
    rows = [row, [rng.randrange(p) for _ in row], [0] + [rng.randrange(p) for _ in row[1:]]]
    zp, ties = _Zp64(p), []
    real = zp.reduce
    zp.reduce = lambda x, e: ties.append(np.count_nonzero(abs(e % 1 - 0.5) < 1e-6)) or real(x, e)
    lead, new = exactla._gauss_jordan(zp, np.array(rows, dtype=np.uint64, order="F"), 3)
    assert (lead, new.tolist()) == python_gauss_jordan(rows, p)
    assert ties[0] >= 4


@pytest.mark.parametrize("p", [(1 << 31) - 1, WORD_LAST])
def test_gauss_jordan_numpy_factors_match_python_ints(p):
    # below 2^32 the factors are p - f for the reduced pivot column f, and
    # p (p-1) nearly fills 64 bits at the largest prime below 2^32; the
    # batch is left with fewer than k updates unreduced, none when k = 1;
    # in row-major and in column-major order, which rref passes
    k = updates_per_reduction(p)
    assert k == (4 if p < WORD_LAST else 1)
    rng = random.Random(p)
    for order in "CFCF":
        uniform = [[rng.randrange(p) for _ in range(48)] for _ in range(32)]
        for rows in ([[p - 1] * 48] * 32, uniform):
            y = np.array(rows, dtype=np.uint64, order=order)
            lead, new = exactla._gauss_jordan(_Zp64(p), y, len(rows))
            assert (lead, new.tolist()) == python_gauss_jordan(rows, p)
            assert (y <= p - 1 + (k - 1) * p * (p - 1)).all()


def test_one_limb_product_is_one_gemm_up_to_its_exact_bound(monkeypatch):
    # below 2^21 an inner dimension of at most kc = (2^53 - 1) // (p-1)^2
    # sums exactly in one float64 GEMM per row block, without limbs; all
    # p-1 at k = kc is the largest such sum, and rows past one row block
    # cover the blocking
    p = 2097143  # the largest prime below 2^21
    kc = ((1 << 53) - 1) // (p - 1) ** 2
    rng = random.Random(p + 4)
    monkeypatch.setattr(exactla, "_limbs", lambda x, nl: pytest.fail("limbs split"))
    for m, k, w in [(3, kc, 4), (_CHUNK // 5 + 3, 11, 5), (1, 1, 1)]:
        a = np.full((m, k), p - 1, dtype=np.uint64)
        a[1:] = edge_values(rng, p, (m - 1, k))
        b = np.full((k, w), p - 1, dtype=np.uint64)
        b[:, 1:] = edge_values(rng, p, (k, w - 1))
        expect = python_matmul(a, b, p)
        assert expect[0][0] == k * (p - 1) ** 2 % p
        assert matmul_modp(a, b, p).tolist() == expect
        got = matmul_modp(a.view(np.int64), b.view(np.int64), p)
        assert got.dtype == np.int64 and got.tolist() == expect


def all_ones_below(p):
    """The largest residue whose 21-bit limbs below the top one are all
    2^21 - 1, so that limb sums in matmul_modp are as large as p allows."""
    low = 1 << (_LIMB * (((p - 1).bit_length() - 1) // _LIMB))
    v = (p - 1) // low * low + low - 1
    return v if v < p else v - low


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_block_product_with_limb_sums_near_2_53_matches_python_ints(p):
    rng = random.Random(p + 3)
    v, nl = all_ones_below(p), max(1, -(-(p - 1).bit_length() // _LIMB))
    top = min(p - 1, (1 << _LIMB) - 1)
    kc = ((1 << 53) - 1) // (nl * top * top)  # inner indices per exact GEMM
    limbs = [(v >> (_LIMB * i)) & ((1 << _LIMB) - 1) for i in range(nl)]
    peak = kc * max(sum(limbs[i] * limbs[s - i] for i in range(nl) if 0 <= s - i < nl)
                    for s in range(2 * nl - 1))
    assert 1 << 51 < peak < 1 << 53
    # full chunks of v and p - 1, then a mix with edge values
    k = 2 * kc + 5
    a = np.full((6, k), v, dtype=np.uint64)
    a[1] = p - 1
    a[2:] = edge_values(rng, p, (4, k))
    b = np.full((k, 5), v, dtype=np.uint64)
    b[:, 1] = p - 1
    b[:, 2:] = edge_values(rng, p, (k, 3))
    assert matmul_modp(a, b, p).tolist() == python_matmul(a, b, p)
    assert matmul_modp(a.view(np.int64), b.view(np.int64), p).tolist() == python_matmul(a, b, p)


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
    return from_rows(p, c, rows), k


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_boundary_primes_match_sparse_reference_and_oracle(p):
    rng = random.Random(p)
    for r, c, density in [(65, 65, 0.5), (300, 120, 0.1), (90, 300, 0.03), (200, 200, 0.015)]:
        mat, k = boundary_matrix(rng, p, r, c, density)
        e = assert_same_echelon(mat)
        assert e.rank <= k < min(r, c)
        assert dense_rank_oracle(mat) == e.rank


def test_macaulay_matrices_match_sparse_reference():
    ring = seeded_ring(3, 4, P62, 34)
    for degree in (ring.socle, ring.socle + 1):
        mat = ideal_matrix(ring, degree)
        e = assert_same_echelon(mat)
        assert dense_rank_oracle(mat) == e.rank
        assert mat.ncols - e.rank == (1 if degree == ring.socle else 0)


class RecordingRows(CsrRows):
    """CsrRows that log every (lo, hi) rref asks for."""

    def __init__(self, full):
        super().__init__(full.indptr, full.cols, full.vals, full.ncols)
        self.asked = []

    def dense(self, lo, hi):
        self.asked.append((lo, hi))
        return super().dense(lo, hi)


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
    recorded = RecordingRows(from_rows(P62, c, rows).rows)
    e = rref(FieldMatrix(P62, c, recorded))
    ref = rref_sparse(from_rows(P62, c, rows))
    assert e.pivots == ref.pivots == tuple(range(c))
    assert e.free_block().shape == ref.free_block().shape == (c, 0)
    assert recorded.asked and all(lo < c for lo, _ in recorded.asked)


def test_rows_after_the_rank_bound_are_not_read():
    rng = random.Random(41)
    c, k = 60, 25
    # k independent rows, then combinations of them: rank k, given as the
    # bound, is reached at row k, in the first block of rows read
    head = [{j: rng.randrange(1, P62) for j in range(c) if rng.random() < 0.4} | {i: 1}
            for i in range(k)]
    tail = []
    for _ in range(1500):
        row: dict[int, int] = {}
        for src in rng.sample(head, 3):
            f = rng.randrange(1, P62)
            for j, v in src.items():
                row[j] = (row.get(j, 0) + f * v) % P62
        tail.append({j: v for j, v in row.items() if v})
    rows = head + tail
    recorded = RecordingRows(from_rows(P62, c, rows).rows)
    mat = FieldMatrix(P62, c, recorded, rank_bound=k)
    e = rref(mat)
    ref = rref_sparse(from_rows(P62, c, rows))
    assert e.rank == ref.rank == k
    assert e.pivots == ref.pivots
    assert np.array_equal(e.free_block(), ref.free_block())
    assert mat.rows_read == _ROWS_PER_READ
    assert recorded.asked and all(lo < k for lo, _ in recorded.asked)


def test_relation_matrix_reads_one_block_of_rows():
    # the (4,4) relation matrix of degree 9: 2574 rows, one column for each
    # of the 15 distinct products x_k b of the 5 basis monomials of R_9,
    # rank 14, the bound 15 - CI_10 = 15 - 1, reached within the first read
    ring = seeded_ring(4, 4, P62, 44)
    rel = ring.relation_matrix(9)
    recorded = RecordingRows(from_rows(P62, rel.ncols, rel.rows).rows)
    e = rref(FieldMatrix(P62, rel.ncols, recorded, rank_bound=rel.rank_bound))
    ref = rref_sparse(rel)
    assert (rel.nrows, rel.ncols, rel.rank_bound, e.rank) == (2574, 15, 14, 14)
    assert e.pivots == ref.pivots
    assert np.array_equal(e.free_block(), ref.free_block())
    assert recorded.asked == [(0, _ROWS_PER_READ)]


def test_dict_rows_are_the_nonzeros_of_the_dense_rows():
    # iterating rows yields, for each row, its nonzero entries as a dict:
    # stored CSR rows with empty ones, relation rows (a row joining two
    # basis monomials is empty) and the rows of an array, column-major as
    # mult_map's transposed product is, each with a final partial block
    rng = random.Random(45)
    p, c = 1048573, 30
    dict_rows = [{} if rng.random() < 0.3 else
                 {j: rng.randrange(1, p) for j in range(c) if rng.random() < 0.2}
                 for _ in range(75)]
    ring = seeded_ring(3, 4, p, 45)
    csr = from_rows(p, c, dict_rows)
    full = csr.dense()
    mats = [csr, ring.relation_matrix(4), FieldMatrix.from_array(p, np.asfortranarray(full))]
    empty = 0
    for mat in mats:
        assert mat.nrows > _ROWS_PER_READ + 5 and mat.nrows % _ROWS_PER_READ
        dense = mat.dense()
        assert dense.dtype == np.int64 and dense.shape == (mat.nrows, mat.ncols)
        assert list(mat.rows) == [{j: int(row[j]) for j in np.flatnonzero(row).tolist()}
                                  for row in dense]
        empty += int((~dense.any(axis=1)).sum())
    assert list(csr.rows) == dict_rows
    assert empty
    # FieldMatrix.dense counts the leading rows it hands out
    mat = from_rows(p, c, dict_rows)
    assert mat.rows_read == 0
    assert np.array_equal(mat.dense(0, 7), full[:7])
    assert mat.rows_read == 7
    assert np.array_equal(mat.dense(2, 4), full[2:4]) and mat.dense(3, 3).shape == (0, c)
    assert mat.rows_read == 7
    assert np.array_equal(mat.dense(), full)
    assert mat.rows_read == mat.nrows


def test_block_size_guard_refuses_before_allocating(monkeypatch):
    n = 40000
    mat = from_rows(P62, n, [{i: 1} for i in range(n)])
    # without the guard rref would go on to fill a 3.2 GB block
    for name in ("empty", "zeros"):
        monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail("array allocated"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardExceeded):
            rref(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p", [1048573, P62])
def test_residual_check_catches_a_corrupted_product(monkeypatch, p):
    # one wrong entry in every product must not pass silently into an
    # echelon: the batch it corrupts no longer vanishes modulo the new rows
    exact = exactla.matmul_modp

    def corrupted(a, b, q):
        out = exact(a, b, q)
        if out.size:
            out.flat[0] = (int(out.flat[0]) + 1) % q
        return out

    mat, _ = boundary_matrix(random.Random(p), p, 120, 90, 0.3)
    assert_same_echelon(mat)
    monkeypatch.setattr(exactla, "matmul_modp", corrupted)
    with pytest.raises(AssertionError, match="nonzero residue"):
        rref(mat)


@pytest.mark.parametrize("p", [1048573, P62])
@pytest.mark.parametrize("r,c,k", [(20, 30, 20), (60, 50, 40)], ids=["one-batch", "mid-batch"])
def test_a_forged_rank_bound_leaves_a_residue(p, r, c, k):
    # an r x c product of rank k, its rows in general position: with the
    # true bound k the echelon is the reference's; with k - 1 the batch that
    # reaches it stops scanning with an independent row left (after row 19
    # of the one batch, or after 7 of the second batch's rows, mid-batch),
    # and the residual check, which reduces every row read, must catch it
    rng = random.Random(r * p)
    u = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
    v = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
    rows = [{j: sum(a * b for a, b in zip(row, col)) % p for j, col in enumerate(zip(*v))}
            for row in u]
    mat = from_rows(p, c, rows)
    got, ref = rref(FieldMatrix(p, c, mat.rows, rank_bound=k)), rref_sparse(mat)
    assert got.rank == ref.rank == k and got.pivots == ref.pivots
    assert np.array_equal(got.free_block(), ref.free_block())
    with pytest.raises(AssertionError, match="nonzero residue"):
        rref(FieldMatrix(p, c, mat.rows, rank_bound=k - 1))


def test_smoothness_echelon_memory_budget():
    # the 2475 x 1365 socle+1 ideal matrix of a (4,4) form: the block peaks
    # near 3.8 MB; holding all rows at once adds about 2.9 MB, and a dense
    # rank x ncols buffer alone would take 15 MB
    ring = seeded_ring(4, 4, P62, 44)
    tracemalloc.start()
    try:
        e = rref(ideal_matrix(ring, ring.socle + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.rank, e.ncols) == (1365, 1365)
    assert peak < 6 * 10 ** 6
    # the relation chain reaches the same vanishing degree, from the degree-6
    # ideal matrix up, within about 1.2 MB
    ring = seeded_ring(4, 4, P62, 44)
    tracemalloc.start()
    try:
        smooth = ring.certify_smooth()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smooth and ring.normal_forms(ring.socle + 1).shape == (1365, 0)
    assert peak < 2 * 10 ** 6
