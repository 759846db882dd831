from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from varcert.exactla import (
    EchelonResult,
    FieldMatrix,
    MatrixFormatError,
    SizeGuardExceeded,
    dense_rank_oracle,
    kernel_witness,
    load_matrix,
    rref,
)
from helpers import dump_matrix, from_rows, ideal_matrix, mul_vector, reduce_rows
from rref_reference import rref_sparse as _rref_sparse
from varcert.cli import main
from varcert.jacobian import JacobianRing
from varcert.polyring import (
    HomogeneousForm,
    PrimeField,
    enumerate_monomials,
    parse_form,
    partial_derivatives,
)

# 2147483659 and 4294967311, the primes just above 2^31 and 2^32, take the
# dense oracle past its int64 arithmetic
PRIMES = [5, 10007, 1048573, 67108859, (1 << 31) - 1, 2147483659, 4294967311,
          (1 << 62) - 57]


def rand_mat(rng, p, r, c, density):
    rows = [{j: rng.randrange(1, p) for j in range(c) if rng.random() < density}
            for _ in range(r)]
    return from_rows(p, c, rows)


def test_backends_agree_on_full_rref():
    rng = random.Random(20240401)
    for _ in range(80):
        p = rng.choice(PRIMES)
        r, c = rng.randrange(0, 15), rng.randrange(1, 15)
        m = rand_mat(rng, p, r, c, rng.choice([0.2, 0.6, 1.0]))
        ref, e = _rref_sparse(m), rref(m)
        assert e.pivots == ref.pivots
        assert np.array_equal(e.free_block(), ref.free_block())
        assert dense_rank_oracle(m) == ref.rank


def test_rref_invariant_under_row_shuffle():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([10007, 1048573])
        m = rand_mat(rng, p, rng.randrange(3, 12), rng.randrange(3, 12), 0.5)
        ref = rref(m)
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        e = rref(from_rows(p, m.ncols, shuffled))
        assert e.pivots == ref.pivots
        assert np.array_equal(e.free_block(), ref.free_block())


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([10007, 1048573])
        m = rand_mat(rng, p, rng.randrange(1, 12), rng.randrange(1, 12), 0.4)
        assert rref(m).rank == rref(FieldMatrix.from_array(p, m.dense().T)).rank


def test_low_rank_product_has_expected_rank():
    rng = random.Random(3)
    p = 1048573
    r, c, k = 40, 30, 12
    a = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
    b = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
    prod = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(c)]
            for i in range(r)]
    m = FieldMatrix.from_array(p, np.array(prod, dtype=np.int64))
    e = rref(m)
    assert e.rank == k == dense_rank_oracle(m)
    w = kernel_witness(m, e)
    assert w is not None and any(w)


def test_fermat_quartic_ideal_matrix_rank():
    # rows are x_k * dF/dx_i for the Fermat quartic in four variables, in
    # the degree-4 monomial basis; 16 distinct monomials x_k*x_i^3 appear
    field = PrimeField(10007)
    f = parse_form("x0^4 + x1^4 + x2^4 + x3^4", 3, field)
    parts = partial_derivatives(f)
    mons1 = enumerate_monomials(3, 1)
    idx = {m: i for i, m in enumerate(enumerate_monomials(3, 4))}
    rows = []
    for m in mons1:
        for fi in parts:
            rows.append({idx[tuple(a + b for a, b in zip(m, mm))]: cc
                         for mm, cc in fi.terms.items()})
    mat = from_rows(10007, 35, rows)
    assert (mat.nrows, mat.ncols) == (16, 35)
    assert rref(mat).rank == 16 == dense_rank_oracle(mat)


def test_reduce_block_properties():
    # helpers.reduce_rows, the normal forms through one product with
    # normal_forms() (the name is kept so that the test's ids stay stable)
    rng = random.Random(5)
    for p in [10007, (1 << 62) - 57]:
        m = rand_mat(rng, p, 8, 10, 0.6)
        e = rref(m)
        v, w = (np.array([[rng.randrange(p) for _ in range(10)]], dtype=np.int64)
                for _ in range(2))
        rv, rw = reduce_rows(e, v), reduce_rows(e, w)
        assert not rv[:, list(e.pivots)].any()
        assert np.array_equal(reduce_rows(e, rv), rv)
        assert np.array_equal(reduce_rows(e, (v + w) % p), (rv + rw) % p)
        assert not reduce_rows(e, m.dense()).any()


def test_kernel_witness_none_iff_full_column_rank():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice([10007, (1 << 62) - 57])
        m = rand_mat(rng, p, rng.randrange(1, 10), rng.randrange(1, 10), 0.7)
        e = rref(m)
        w = kernel_witness(m, e)
        if e.rank == m.ncols:
            assert w is None
        else:
            assert w is not None
            assert all(x == 0 for x in mul_vector(m, w))
            assert any(w)


def test_kernel_witness_duplicate_columns():
    p = 10007
    m = FieldMatrix.from_array(p, np.array([[1, 2, 2], [3, 4, 4], [5, 6, 6]]))
    w = kernel_witness(m, rref(m))
    assert w is not None
    assert all(x == 0 for x in mul_vector(m, w))


def test_kernel_witness_check_is_exact_at_word_size_primes():
    # entries near 2^62, whose row sums overflow 64 bits: the true witness
    # passes, and one read from a corrupted echelon is refused
    p = (1 << 62) - 57
    top = [[p - 1, p - 2, 3], [p - 3, 2, p - 1]]
    rows = top + [[(x + y) % p for x, y in zip(*top)]]
    m = FieldMatrix.from_array(p, np.array(rows, dtype=np.int64))
    e = rref(m)
    assert e.rank == 2
    w = kernel_witness(m, e)
    assert w is not None and not any(mul_vector(m, w))
    bad = EchelonResult(p, e.ncols, e.pivots, (e.free_block() + 1) % p)
    with pytest.raises(AssertionError, match="exact verification"):
        kernel_witness(m, bad)


def test_empty_and_degenerate_shapes():
    m = from_rows(7, 5, [])
    assert rref(m).rank == 0
    assert kernel_witness(m, rref(m)) is not None  # zero map, e_0 is in the kernel
    z = from_rows(7, 4, [{}, {}])
    assert rref(z).rank == 0


def test_oracle_size_guard():
    m = from_rows(10007, 3000, [dict() for _ in range(4000)])
    with pytest.raises(SizeGuardExceeded):
        dense_rank_oracle(m)


@pytest.mark.parametrize("p", [1048573, 2147483659], ids=["int64", "object"])
def test_dense_rank_oracle_leaves_its_input_alone(p):
    # an ArrayRows matrix, as a loaded dump is, hands out the array it
    # holds, so the oracle must eliminate a copy on either branch
    rng = random.Random(p)
    a = np.array([[0] + [rng.randrange(p) for _ in range(6)]] +
                 [[rng.randrange(p) for _ in range(7)] for _ in range(5)], dtype=np.int64)
    mat = FieldMatrix.from_array(p, a.copy())
    held = mat.dense()
    assert dense_rank_oracle(mat) == 6
    assert np.array_equal(held, a)


# the last prime below 2^23: its residues take two 21-bit limbs
P23 = 8388593


def test_float_tier_matches_sparse_reference_on_wide_macaulay_matrix():
    rng = random.Random(35)
    coeffs = {m: rng.randint(-9, 9) for m in enumerate_monomials(3, 5)}
    ring = JacobianRing(HomogeneousForm.from_terms(
        3, 5, {m: c for m, c in coeffs.items() if c}, PrimeField(P23)))
    for degree in (ring.socle, ring.socle + 1):
        mat = ideal_matrix(ring, degree)
        assert mat.ncols > 64
        got, ref = rref(mat), _rref_sparse(mat)
        assert got.pivots == ref.pivots
        assert np.array_equal(got.free_block(), ref.free_block())


def test_float_tier_size_guard_refuses_before_allocating(monkeypatch):
    # the small primes once served by a float tier share the one engine's
    # guard: a 40000 x 40000 matrix at 10007 would fill a 3.2 GB block
    n = 40000
    mat = from_rows(10007, n, [{i: 1} for i in range(n)])
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


def test_dump_load_roundtrip(tmp_path, capsys):
    rng = random.Random(13)
    m = rand_mat(rng, 1048573, 6, 9, 0.4)
    path = tmp_path / "mat.txt"
    dump_matrix(m, path)
    m2 = load_matrix(path)
    assert (m2.p, m2.nrows, m2.ncols) == (m.p, m.nrows, m.ncols)
    assert list(m2.rows) == list(m.rows)
    # a hand-written dump: entries out of row order, row 2 and the last
    # column empty
    path = tmp_path / "hand.txt"
    path.write_text("4 5 1048573\n3 0 5\n0 1 2\n3 3 1048572\n0 0 1\n1 2 7\n")
    expected = np.array([[1, 2, 0, 0, 0], [0, 0, 7, 0, 0], [0, 0, 0, 0, 0],
                         [5, 0, 0, 1048572, 0]], dtype=np.int64)
    assert np.array_equal(load_matrix(path).dense(), expected)
    assert main(["rank-oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RankAgreement"


@pytest.mark.parametrize("text", [
    "",
    "2 2\n",
    "a 2 7\n",
    "2 2 7\n0 0 0\n",
    "2 2 7\n0 0 9\n",
    "2 2 7\n0 5 1\n",
    "2 2 7\n0 0 1\n0 0 2\n",
    "2 2 7\n0 0\n",
])
def test_load_rejects_corrupted(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MatrixFormatError):
        load_matrix(path)
