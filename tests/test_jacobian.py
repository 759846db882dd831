"""Jacobian ring graded pieces, smoothness certificates, Hilbert series."""

import random

import pytest

from varcert.exactla import SizeGuardExceeded, rref
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
        mat = ring.ideal_matrix(p)
        assert mat.ncols == monomial_count(3, p)
        assert mat.nrows == 4 * monomial_count(3, p - 4)
    assert ring.ideal_matrix(3).nrows == 0
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
        mat = ring.ideal_matrix(p)
        old = old_ideal_rows(ring, p)
        assert mat.nrows == len(old)
        indptr, cols, vals = mat.csr()
        got = [dict(zip(cols[s:e].tolist(), vals[s:e].tolist()))
               for s, e in zip(indptr.tolist(), indptr[1:].tolist())]
        assert got == old
        assert list(mat.rows) == old
        # any row range, including ones that split a multiplier's rows
        lo, hi = len(old) // 3 + 1, 2 * len(old) // 3 + 2
        if hi <= len(old):
            ip, c, v = mat.csr(lo, hi)
            assert ip[0] == 0 and ip.size == hi - lo + 1
            assert c.tolist() == [j for r in old[lo:hi] for j in r]
            assert v.tolist() == [x for r in old[lo:hi] for x in r.values()]


def test_ideal_matrix_column_guard():
    ring = fermat_ring(8, 3, PrimeField(1048573))
    with pytest.raises(SizeGuardExceeded):
        ring.ideal_matrix(20)


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


def test_set_dim_short_circuits_computation():
    ring = fermat_ring(4, 4, F)
    ring.set_dim(11, 0)
    # socle+1 = 11; the certificate must come from the installed value
    # without touching the (large) degree-11 matrix
    assert ring.certify_smooth()
    assert ring.known_dims() == {11: 0}


def test_each_degree_is_eliminated_once(monkeypatch):
    import varcert.jacobian as jacobian
    calls = []
    real = jacobian.rref

    def counting(mat):
        calls.append(mat.ncols)
        return real(mat)

    monkeypatch.setattr(jacobian, "rref", counting)
    ring = fermat_ring(3, 4, F)
    ring.hilbert_function()
    for p in range(ring.socle + 2):
        ring.quotient_basis(p)
    assert len(calls) == ring.socle + 2


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


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_socle_successor_echelon_matches_ideal_matrix_rref(label, n, d, text, smooth, prime):
    ring = route_ring(n, d, text, prime)
    built = []
    ideal_matrix = ring.ideal_matrix

    def recording(p):
        built.append(p)
        return ideal_matrix(p)

    ring.ideal_matrix = recording
    top = ring.socle + 1
    got = ring.echelon(top)
    ref = rref(ideal_matrix(top))
    assert got.pivots == ref.pivots
    assert got.free_columns() == ref.free_columns()
    for k in range(ref.rank):
        assert got.row_as_dict(k) == ref.row_as_dict(k)
    assert (ref.rank == ref.ncols) == smooth
    # the relation rank stands in for the ideal matrix exactly when it
    # proves R_{socle+1} = 0 from a socle at or above degree d-1
    relation_route = smooth and ring.socle >= d - 1
    assert (top in built) == (not relation_route)


@pytest.mark.parametrize("prime", ROUTE_PRIMES)
@pytest.mark.parametrize("label,n,d,text,smooth", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_relation_rank_gives_the_next_graded_dim(label, n, d, text, smooth, prime):
    # dim R_{q+1} = (n+1) dim R_q - rank(Rel) for every q >= d-1, singular
    # forms included; checked up to the socle and one degree past it
    ring = route_ring(n, d, text, prime)
    for q in range(d - 1, ring.socle + 2):
        rel = ring.relation_matrix(q)
        assert rel.ncols == (n + 1) * ring.graded_dim(q)
        assert rel.ncols - rref(rel).rank == ring.graded_dim(q + 1), q
    with pytest.raises(ValueError):
        ring.relation_matrix(d - 2)


def test_smoothness_certificate_skips_the_socle_successor_ideal_matrix(monkeypatch):
    built = []
    real = JacobianRing.ideal_matrix

    def recording(self, p):
        built.append(p)
        return real(self, p)

    monkeypatch.setattr(JacobianRing, "ideal_matrix", recording)
    ring = route_ring(3, 4, None, F.p)
    assert ring.certify_smooth()
    assert built == [ring.socle]
