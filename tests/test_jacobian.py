"""Jacobian ring graded pieces, smoothness certificates, Hilbert series."""

import random
import tracemalloc

import numpy as np
import pytest

from helpers import (
    degrevlex_descending,
    ideal_matrix,
    pair_relation_matrix,
    product_monomials,
    times_variable,
)
from varcert.exactla import FieldMatrix, SizeGuardExceeded, matmul_modp, rref
from varcert.jacobian import (
    CharacteristicError,
    JacobianRing,
    ci_hilbert_coefficients,
    fermat_ring,
)
from varcert.polyring import (
    HomogeneousForm,
    PrimeField,
    enumerate_monomials,
    monomial_count,
    parse_form,
)

F = PrimeField(1048573)

FROZEN_SERIES = {
    (3, 4): [1, 4, 10, 16, 19, 16, 10, 4, 1],
    (4, 3): [1, 5, 10, 10, 5, 1],
    (2, 6): [1, 3, 6, 10, 15, 18, 19, 18, 15, 10, 6, 3, 1],
    (4, 4): [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1],
    (3, 5): [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1],
}


def series_by_convolution(n: int, d: int) -> list[int]:
    """Multiply out (1 + t + .. + t^(d-2))^(n+1) coefficientwise."""
    block = [1] * (d - 1)
    out = [1]
    for _ in range(n + 1):
        nxt = [0] * (len(out) + len(block) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(block):
                nxt[i + j] += a * b
        out = nxt
    return out


@pytest.mark.parametrize("n,d", sorted(FROZEN_SERIES) + [(1, 3), (5, 3), (2, 9)])
def test_ci_series_matches_convolution(n, d):
    assert ci_hilbert_coefficients(n, d) == series_by_convolution(n, d)


@pytest.mark.parametrize("n,d", sorted(FROZEN_SERIES))
def test_ci_series_frozen_values(n, d):
    assert ci_hilbert_coefficients(n, d) == FROZEN_SERIES[(n, d)]


@pytest.mark.parametrize("n,d", sorted(FROZEN_SERIES))
def test_ci_series_symmetry_and_length(n, d):
    ser = ci_hilbert_coefficients(n, d)
    assert len(ser) == (n + 1) * (d - 2) + 1
    assert ser == ser[::-1]
    assert ser[0] == 1 and ser[1] == n + 1


def test_ci_series_rejects_bad_input():
    with pytest.raises(ValueError):
        ci_hilbert_coefficients(3, 1)
    with pytest.raises(ValueError):
        ci_hilbert_coefficients(-1, 4)


@pytest.mark.parametrize("n,d", sorted(FROZEN_SERIES))
def test_fermat_is_certified_smooth_with_ci_hilbert(n, d):
    ring = fermat_ring(n, d, F)
    assert ring.certify_smooth()
    assert list(ring.hilbert_function()) == FROZEN_SERIES[(n, d)] + [0]


def test_random_smooth_forms_match_ci_series(corpus):
    for entry in corpus[(3, 4)] + corpus[(4, 3)]:
        ring = entry.ring(F.p)
        assert ring.certify_smooth(), entry.label
        assert list(ring.hilbert_function()) == (
            FROZEN_SERIES[(entry.n, entry.d)] + [0]), entry.label


def test_singular_binary_form_not_certified():
    # x0^2 x1^2 has a non-reduced zero locus; R_{socle+1} survives
    f = parse_form("x0^2*x1^2", 1, F)
    ring = JacobianRing(f)
    assert ring.socle == 4
    assert not ring.certify_smooth()
    assert ring.graded_dim(5) == 2


def test_cone_not_certified():
    # no x3 dependence, so one partial vanishes identically
    f = parse_form("x0^4 + x1^4 + x2^4 + 0*x3^4", 3, F)
    assert f.n == 3
    ring = JacobianRing(f)
    assert not ring.certify_smooth()


def test_quotient_basis_sizes_and_membership():
    ring = fermat_ring(3, 4, F)
    for p in range(ring.socle + 2):
        basis = ring.quotient_basis(p)
        assert len(basis) == ring.graded_dim(p)
        assert all(sum(m) == p and len(m) == 4 for m in basis)
    assert ring.quotient_basis(-1) == ()
    # Fermat ideal is monomial, so the basis is exactly the monomials with
    # every exponent <= d - 2
    assert all(max(m) <= 2 for m in ring.quotient_basis(4))
    assert len(ring.quotient_basis(4)) == 19


def test_ideal_matrix_shape():
    ring = fermat_ring(3, 5, F)
    for p in (4, 6, 9):
        mat = ideal_matrix(ring, p)
        assert mat.ncols == monomial_count(3, p)
        assert mat.nrows == 4 * monomial_count(3, p - 4)
    assert ideal_matrix(ring, 3).nrows == 0
    assert ring.graded_dim(3) == monomial_count(3, 3)


def old_ideal_rows(ring, p):
    """The ideal matrix rows as the dict comprehension over monomial tuples
    builds them: m * dF/dx_i for m of degree p-d+1, partials innermost."""
    if p < ring.degree - 1:
        return []
    idx = {m: i for i, m in enumerate(enumerate_monomials(ring.n, p))}
    return [{idx[tuple(a + b for a, b in zip(m, mm))]: c for mm, c in fi.terms.items()}
            for m in enumerate_monomials(ring.n, p - ring.degree + 1)
            for fi in ring.partials]


@pytest.mark.parametrize("n,d,text", [
    (4, 4, None),
    (8, 3, "x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x6^3 + x7^3 + x8^3"
           " + 5*x0*x4*x8 - 2*x1^2*x7"),
    (3, 4, "x1^4 + x2^4 + x3^4"),  # dF/dx0 = 0: every fourth row is empty
], ids=["n4d4", "n8d3", "zero-partial"])
def test_vectorized_ideal_rows_match_dict_construction(n, d, text):
    if text is None:
        rng = random.Random(44)
        terms = {m: rng.randint(-9, 9) for m in enumerate_monomials(n, d)}
        form = HomogeneousForm.from_terms(n, d, {m: c for m, c in terms.items() if c}, F)
    else:
        form = parse_form(text, n, F)
    ring = JacobianRing(form)
    for p in range(ring.socle + 2):  # p < d-1 has no rows
        mat = ideal_matrix(ring, p)
        old = old_ideal_rows(ring, p)
        assert mat.nrows == len(old)
        indptr, cols, vals = mat.rows.csr(0, mat.nrows)
        got = [dict(zip(cols[s:e].tolist(), vals[s:e].tolist()))
               for s, e in zip(indptr.tolist(), indptr[1:].tolist())]
        assert got == old
        assert list(mat.rows) == old
        # any row range, including ones that split a multiplier's rows
        lo, hi = len(old) // 3 + 1, 2 * len(old) // 3 + 2
        if hi <= len(old):
            ip, c, v = mat.rows.csr(lo, hi)
            assert ip[0] == 0 and ip.size == hi - lo + 1
            assert c.tolist() == [j for r in old[lo:hi] for j in r]
            assert v.tolist() == [x for r in old[lo:hi] for x in r.values()]


def test_ideal_matrix_column_guard():
    ring = fermat_ring(8, 3, PrimeField(1048573))
    with pytest.raises(SizeGuardExceeded):
        ideal_matrix(ring, 20)


def test_characteristic_gate():
    small = PrimeField(3)
    f = parse_form("x0^4 + x1^4", 1, small)
    with pytest.raises(CharacteristicError):
        JacobianRing(f)
    # boundary: p == d is still too small
    exact = PrimeField(5)
    g = parse_form("x0^5 + x1^5 + x2^5", 2, exact)
    with pytest.raises(CharacteristicError):
        JacobianRing(g)


def test_degree_gate():
    f = parse_form("x0 + x1", 1, F)
    with pytest.raises(ValueError):
        JacobianRing(f)


def test_graded_dim_negative_degree_is_zero():
    ring = fermat_ring(2, 4, F)
    assert ring.graded_dim(-1) == 0
    assert ring.graded_dim(-7) == 0


def test_dims_deterministic_across_instances():
    rng = random.Random(20260814)
    f = HomogeneousForm.from_terms(
        2, 5, {m: rng.randint(-9, 9) for m in enumerate_monomials(2, 5)}, F)
    a, b = JacobianRing(f), JacobianRing(f)
    assert a.hilbert_function() == b.hilbert_function()
    assert a.quotient_basis(5) == b.quotient_basis(5)


def test_each_degree_is_eliminated_once(monkeypatch):
    # every degree is computed once: below d-1 by no elimination (the ideal
    # is empty there), at d-1 by its ideal matrix, by exactly one relation
    # matrix (of the degree below) from d on; each step is at most one rref,
    # and quotient_basis reads what the step kept
    import varcert.jacobian as jacobian
    calls = []
    real = jacobian.rref
    ideal, relation = [], []
    real_ideal, real_relation = JacobianRing._partials_matrix, JacobianRing.relation_matrix

    def counting(mat):
        calls.append(mat.ncols)
        return real(mat)

    def ideal_recording(self):
        ideal.append(self.degree - 1)
        return real_ideal(self)

    def relation_recording(self, q):
        relation.append(q)
        return real_relation(self, q)

    monkeypatch.setattr(jacobian, "rref", counting)
    monkeypatch.setattr(JacobianRing, "_partials_matrix", ideal_recording)
    monkeypatch.setattr(JacobianRing, "relation_matrix", relation_recording)
    ring = fermat_ring(3, 4, F)
    ring.hilbert_function()
    for p in range(ring.socle + 2):
        ring.quotient_basis(p)
    assert ideal == [3]
    assert relation == list(range(3, ring.socle + 1))
    assert len(calls) == len(ideal) + len(relation)
    assert [s["route"] for s in ring.stages()] == ["ideal"] * 4 + ["relation"] * 6


ROUTE_PRIMES = [1048573, 8388617, (1 << 31) - 1, (1 << 62) - 57]
# (label, n, d, form text or None for a seeded random form, smooth)
ROUTE_CASES = [
    ("n3d4", 3, 4, None, True),
    ("n4d3", 4, 3, None, True),
    ("n2d6", 2, 6, None, True),
    ("n3d5", 3, 5, None, True),
    ("singular-quartic", 3, 4, "x0^2*x1^2 + x1^4 + x2^4 + x3^4", False),
    ("cone", 3, 4, "x1^4 + x2^4 + x3^4", False),
    ("quadric", 2, 2, "x0^2 + x1^2 + x2^2 + 3*x0*x1", True),  # socle 0 < d-1
]


def route_ring(n, d, text, prime):
    field = PrimeField(prime)
    if text is not None:
        return JacobianRing(parse_form(text, n, field))
    rng = random.Random(100 * n + d)
    terms = {m: rng.randint(-9, 9) for m in enumerate_monomials(n, d)}
    return JacobianRing(HomogeneousForm.from_terms(
        n, d, {m: c for m, c in terms.items() if c}, field))


def unbounded(mat):
    """The same rows without the rank bound, so an engine reads them all."""
    return FieldMatrix(mat.p, mat.ncols, mat.rows)


@pytest.mark.parametrize("prime", [1048573, (1 << 62) - 57])
@pytest.mark.parametrize("n,d,text", [
    (3, 4, None), (4, 3, None), (2, 6, None),
    (3, 4, "x1^4 + x2^4 + x3^4"),  # dF/dx0 = 0: the first row is empty
], ids=["n3d4", "n4d3", "n2d6", "zero-partial"])
def test_degree_d_minus_1_step_eliminates_the_ideal_matrix(n, d, text, prime):
    # the one ideal matrix production builds, the n+1 partials, is the
    # reference ideal matrix of degree d-1: the same rows in the same
    # columns under the same rank bound, and the step records its shape
    ring = route_ring(n, d, text, prime)
    got, ref = ring._partials_matrix(), ideal_matrix(ring, d - 1)
    assert got.nrows == ref.nrows == n + 1 and got.ncols == ref.ncols
    assert got.rank_bound == ref.rank_bound
    assert np.array_equal(got.dense(), ref.dense())
    assert (text is None) == got.dense().any(axis=1).all()
    ring.graded_dim(d - 1)
    assert [(st["degree"], st["shape"]) for st in ring.stages()] == [(d - 1, [n + 1, ref.ncols])]


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_socle_successor_echelon_matches_ideal_matrix_rref(label, n, d, text, smooth, prime):
    # every degree 0..socle+1 keeps NF, the normal forms of its monomials in
    # a basis of monomials: C(n+q, n) rows, as many columns as the whole
    # ideal matrix's corank, the identity at the basis monomials and zero on
    # every ideal row, so the kernel of NF is the ideal's row space; a degree
    # eliminated from its ideal matrix keeps that echelon's free columns as
    # its basis.  The ideal matrix's rank bound C(n+q, n) - CI_q holds for
    # the unstopped rank
    ring = route_ring(n, d, text, prime)
    built = []
    partials_matrix = ring._partials_matrix

    def recording():
        built.append(ring.degree - 1)
        return partials_matrix()

    ring._partials_matrix = recording
    top = ring.socle + 1
    ring.graded_dim(top)
    ci = ci_hilbert_coefficients(n, d) + [0]
    for q in range(top + 1):
        nf = ring.normal_forms(q)
        column = {m: j for j, m in enumerate(enumerate_monomials(n, q))}
        basis = [column[m] for m in ring.quotient_basis(q)]
        mat = ideal_matrix(ring, q)
        ref = rref(unbounded(mat))
        assert nf.shape == (ref.ncols, ref.ncols - ref.rank), q
        assert np.array_equal(nf[basis], np.eye(len(basis), dtype=np.int64)), q
        assert not matmul_modp(mat.dense(), nf, prime).any(), q
        if ring.stages()[q]["route"] == "ideal":
            assert tuple(basis) == ref.free_columns(), q
        assert mat.rank_bound == monomial_count(n, q) - ci[q]
        assert ref.rank <= mat.rank_bound
    assert (ref.rank == ref.ncols) == smooth
    # singular forms and the cone take the relation chain as smooth ones
    # do: every degree from the chain start up to socle+1 comes from
    # relations, and no ideal matrix is built there
    routes = [st["route"] for st in ring.stages()]
    start = routes.index("relation") if "relation" in routes else top + 1
    assert routes == ["ideal"] * start + ["relation"] * (top + 1 - start)
    assert (start <= top) == (ring.socle >= d - 1)
    assert all(p < start for p in built)


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_relation_rank_gives_the_next_graded_dim(label, n, d, text, smooth, prime):
    # the relation matrix has one column per distinct product x_k b of a
    # variable and a basis monomial of R_q, and dim R_{q+1} = ncols -
    # rank(Rel) for every q >= d-1, singular forms included; checked up to
    # the socle and one degree past it with the unstopped rank, which must
    # also respect the bound ncols - CI_{q+1}
    ring = route_ring(n, d, text, prime)
    ci = ci_hilbert_coefficients(n, d) + [0, 0]
    for q in range(d - 1, ring.socle + 2):
        rel = ring.relation_matrix(q)
        assert rel.ncols == len(product_monomials(n, q, ring.quotient_basis(q))), q
        assert rel.rank_bound == rel.ncols - ci[q + 1]
        full = rref(unbounded(rel)).rank
        assert rel.ncols - full == ring.graded_dim(q + 1), q
        assert full <= rel.rank_bound
    with pytest.raises(ValueError):
        ring.relation_matrix(d - 2)


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_merged_relation_matrix_sums_the_pair_indexed_one(label, n, d, text, smooth, prime):
    # summing the columns of the pair-indexed relation matrix whose
    # products x_k b_i coincide gives exactly the rows of
    # relation_matrix(q); the columns merged away take with them the rank
    # of the relations joining coinciding products, one per merged column
    ring = route_ring(n, d, text, prime)
    for q in range(d - 1, ring.socle + 2):
        basis = ring.quotient_basis(q)
        f = len(basis)
        pairs = pair_relation_matrix(ring, q)
        rel = ring.relation_matrix(q)
        mons = enumerate_monomials(n, q + 1)
        products = [mons[j] for j in rel.rows.products]
        assert products == degrevlex_descending(product_monomials(n, q, basis)), q
        column = {u: c for c, u in enumerate(products)}
        dense = pairs.dense()
        merged = np.zeros((pairs.nrows, len(products)), dtype=np.int64)
        for k in range(n + 1):
            for i, b in enumerate(basis):
                c = column[times_variable(b, k)]
                merged[:, c] = (merged[:, c] + dense[:, k * f + i]) % prime
        assert np.array_equal(rel.dense(), merged), q
        assert rref(pairs).rank == rref(unbounded(rel)).rank + (n + 1) * f - len(products), q


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_relation_degrees_keep_the_degrevlex_normal_set(label, n, d, text, smooth, prime):
    # a relation degree's basis is its degrevlex standard monomials: the
    # free columns of one rref of the ideal matrix with its columns in
    # descending degrevlex, whose leftmost pivots are the leading monomials
    ring = route_ring(n, d, text, prime)
    for q in range(d, ring.socle + 2):
        mons = enumerate_monomials(n, q)
        column = {m: j for j, m in enumerate(mons)}
        order = degrevlex_descending(mons)
        dense = ideal_matrix(ring, q).dense()[:, [column[m] for m in order]]
        ref = rref(FieldMatrix.from_array(prime, dense))
        standard = {order[j] for j in ref.free_columns()}
        assert set(ring.quotient_basis(q)) == standard, q


def ideal_matrices_built_by_certificate(monkeypatch, n, d, text, smooth):
    built = []
    real = JacobianRing._partials_matrix

    def recording(self):
        built.append(self.degree - 1)
        return real(self)

    monkeypatch.setattr(JacobianRing, "_partials_matrix", recording)
    ring = route_ring(n, d, text, F.p)
    assert ring.certify_smooth() == smooth
    # every degree above the one ideal matrix comes from relations
    assert [st["degree"] for st in ring.stages() if st["route"] == "relation"] == \
        list(range(built[-1] + 1, ring.socle + 2))
    return built


def test_smoothness_certificate_skips_the_socle_successor_ideal_matrix(monkeypatch):
    # a smooth (3,4) form builds one ideal matrix, degree d-1 = 3, the n+1
    # partials, where the relation chain starts
    assert ideal_matrices_built_by_certificate(monkeypatch, 3, 4, None, True) == [3]


def test_singular_form_builds_no_socle_ideal_matrix(monkeypatch):
    # a relation matrix without full rank still gives dim R_{socle+1}, so a
    # singular form pays no socle or socle+1 ideal matrix either
    built = ideal_matrices_built_by_certificate(
        monkeypatch, 4, 4, "x0^2*x1^2 + x1^4 + x2^4 + x3^4 + x4^4", False)
    assert built == [3]


def test_relation_steps_keep_their_normal_forms(monkeypatch):
    # the smoothness certificate eliminates each degree once, and the
    # normal forms, basis and dim of every degree it reached are then read
    # with no further rref; a stage records only its own elimination
    import varcert.jacobian as jacobian
    prime = (1 << 62) - 57
    calls = []
    real = jacobian.rref

    def counting(mat):
        calls.append(mat.ncols)
        return real(mat)

    monkeypatch.setattr(jacobian, "rref", counting)
    ring = route_ring(4, 4, None, prime)
    assert ring.certify_smooth()
    stages = ring.stages()
    assert len(calls) == len(stages)
    relation = [st["degree"] for st in stages if st["route"] == "relation"]
    assert relation == list(range(4, ring.socle + 2))
    for st in stages:
        q = st["degree"]
        assert set(st) == {"degree", "route", "shape", "rows_read", "rank", "dim", "ms"}
        assert ring.normal_forms(q).shape == (monomial_count(4, q), st["dim"])
        assert len(ring.quotient_basis(q)) == ring.graded_dim(q) == st["dim"]
    assert len(calls) == len(stages)
    assert ring.stages() == stages


def test_relation_step_size_guard_refuses_before_allocating(monkeypatch):
    import varcert.jacobian as jacobian
    ring = route_ring(3, 4, None, F.p)
    ring.graded_dim(5)  # the degrees below, from relations too
    # the degree-6 step needs about 262 kB: Rel_5 is 140 x 64, dim R_5 = 16
    monkeypatch.setattr(jacobian, "ENGINE_BYTES_LIMIT", 10 ** 5)
    monkeypatch.setattr(jacobian, "_product_order",
                        lambda n, q: pytest.fail("relations built"))
    with pytest.raises(SizeGuardExceeded):
        ring.graded_dim(6)
    monkeypatch.undo()
    assert ring.graded_dim(6) == 10


def test_ideal_step_size_guard_refuses_the_normal_forms(monkeypatch):
    # an ideal step keeps a C(n+p, n) x dim R_p array of normal forms: for
    # degree 3 of a (3,4) form 20 x 16 int64, 2560 bytes; below the degree
    # d-1 the ideal is empty, that array is the whole identity and its bytes
    # are counted though it is built only when asked for
    import varcert.jacobian as jacobian
    ring = fermat_ring(3, 4, F)
    assert ring.graded_dim(2) == 10
    monkeypatch.setattr(jacobian, "ENGINE_BYTES_LIMIT", 2559)
    with pytest.raises(SizeGuardExceeded, match="degree-3 ideal step needs 2560 bytes"):
        ring.graded_dim(3)
    assert [st["degree"] for st in ring.stages()] == [2]
    monkeypatch.undo()
    assert ring.graded_dim(3) == 16


def test_degrees_below_d_minus_1_keep_no_normal_forms():
    # below d-1 the ideal is empty: degree 7 of a (8,30) Fermat form has
    # 6435 monomials, whose identity normal forms (331 MB) are not kept,
    # only built when asked for
    ring = fermat_ring(8, 30, F)
    tracemalloc.start()
    try:
        assert ring.graded_dim(7) == monomial_count(8, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert np.array_equal(ring.normal_forms(2), np.eye(monomial_count(8, 2), dtype=np.int64))


def test_relation_rows_ask_for_normal_forms_ahead(monkeypatch):
    # reading all 1760 rows (55 batches) of a relation matrix forms the
    # normal forms they read in 7 products, one each time a batch passes
    # the rows asked for, which then double (32, 64, ..., 1024, 1760); the
    # rows equal those built from normal forms formed all at once
    import varcert.jacobian as jacobian
    ring = fermat_ring(4, 5, F)
    ring.normal_forms(8)
    whole = list(ring.relation_matrix(8).rows)
    ring = fermat_ring(4, 5, F)
    rel = ring.relation_matrix(8)
    calls = []
    monkeypatch.setattr(jacobian, "matmul_modp",
                        lambda a, b, p: calls.append(a.shape) or matmul_modp(a, b, p))
    assert list(rel.rows) == whole
    assert len(calls) == 7


def test_relation_degrees_hold_only_the_normal_forms_read():
    # a relation degree keeps T, the normal forms of its products, and the
    # rows asked for since; certify_smooth on this seeded (4,6) form peaked
    # at 47.4 MB under tracemalloc when every degree kept the normal forms
    # of all its monomials, and at 28.4 MB with T and the rows asked for.
    # Above degree d+1 no degree holds a row per monomial (at d, all but
    # n+1 monomials are products and the first relation rows read the
    # rest; d+1 fills up as the degrees above ask for rows, each reading
    # ahead up to twice the rows rref has read)
    ring = route_ring(4, 6, None, F.p)
    tracemalloc.start()
    try:
        assert ring.certify_smooth()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 10 ** 6
    for q in range(8, ring.socle + 2):
        forms = ring._pieces[q][0]
        assert forms.size < monomial_count(4, q), q
    full = ring.normal_forms(9)
    assert full.shape == (monomial_count(4, 9), ring.graded_dim(9))
    assert np.array_equal(ring.normal_forms(9, np.arange(5, 700, 7)), full[5:700:7])


def test_column_limit_applies_to_relation_degrees(monkeypatch):
    import varcert.jacobian as jacobian
    # degree 9 of a (3,4) form comes from relations; a column limit just
    # below its 220 monomials refuses it before any degree is eliminated
    monkeypatch.setattr(jacobian, "IDEAL_MATRIX_COLUMN_LIMIT", monomial_count(3, 9) - 1)
    ring = route_ring(3, 4, None, F.p)
    with pytest.raises(SizeGuardExceeded):
        ring.graded_dim(9)
    assert ring.stages() == []


def test_certify_smooth_past_the_desk_scale_budget():
    # a seeded (5,4) form: a dense copy of its 12012 x 6188 socle ideal
    # matrix would take 595 MB; the chain eliminates ideal matrices
    # up to degree 3 only, and relation matrices at most 319 columns wide
    ring = route_ring(5, 4, None, F.p)
    assert ring.certify_smooth()
    assert list(ring.hilbert_function()) == ci_hilbert_coefficients(5, 4) + [0]
    stages = ring.stages()
    assert [st["route"] for st in stages] == ["ideal"] * 4 + ["relation"] * 10
    assert max(st["shape"][1] for st in stages) == 319
