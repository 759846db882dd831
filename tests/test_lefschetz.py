"""Multiplication maps, randomized max-rank certificates, WLP sweeps."""

import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import ideal_matrix, injectivity_descends, reduce_rows
from varcert.exactla import FieldMatrix, kernel_witness, rref
from varcert.jacobian import JacobianRing, fermat_ring
from varcert.lefschetz import (
    CERTIFIED_MAX_RANK,
    PROBABLY_DEFICIENT,
    DegreeMismatch,
    RankVerdict,
    certify_general_max_rank,
    mult_map,
    trial_rng,
    wlp_sweep,
)
from varcert.polyring import (
    HomogeneousForm,
    PrimeField,
    enumerate_monomials,
    monomial_keys,
    multiply,
    parse_form,
    random_form,
    variable,
)

F = PrimeField(1048573)


def x(i, n):
    return variable(i, n, F)


def test_fermat_quartic_x0_map_frozen():
    ring = fermat_ring(3, 4, F)
    gm = mult_map(ring, x(0, 3), 4)
    assert (gm.source_dim, gm.target_dim, gm.rank) == (16, 19, 13)
    assert not gm.is_injective()
    g = gm.kernel_form()
    assert g is not None and g.degree == 3
    # kernel is spanned by x0^2 x1, x0^2 x2, x0^2 x3; the witness must be a
    # combination of those, and x0 * g must multiply into the ideal
    assert all(m[0] == 2 for m in g.terms)
    prod = multiply(x(0, 3), g)
    assert all(max(m) >= 3 for m in prod.terms)


def test_fermat_cubic_full_rank_square_map():
    ring = fermat_ring(4, 3, F)
    ell = parse_form("x0 + x1 + x2 + x3 + x4", 4, F)
    gm = mult_map(ring, ell, 3)
    assert (gm.source_dim, gm.target_dim, gm.rank) == (10, 10, 10)
    assert gm.kernel_form() is None


def test_degree_zero_source_map():
    ring = fermat_ring(2, 4, F)
    gm = mult_map(ring, x(1, 2), 1)
    assert gm.source_degree == 0 and gm.source_dim == 1
    assert gm.rank == 1


def test_mult_map_rejects_bad_degrees():
    ring = fermat_ring(2, 4, F)
    with pytest.raises(DegreeMismatch):
        mult_map(ring, x(0, 2), 0)  # source degree would be -1
    other = variable(0, 3, F)
    with pytest.raises(DegreeMismatch):
        mult_map(ring, other, 3)


def test_rank_invariant_under_scaling():
    ring = fermat_ring(3, 4, F)
    h = random_form(3, 2, F, random.Random(7))
    r1 = mult_map(ring, h, 5).rank
    r2 = mult_map(ring, h.scaled(12345), 5).rank
    assert r1 == r2


def test_gorenstein_duality_rank_symmetry():
    # rank(x h: R_{p-e} -> R_p) == rank(x h: R_{s-p} -> R_{s-p+e}), s = socle
    ring = fermat_ring(3, 4, F)
    s = ring.socle
    rng = random.Random(99)
    for e, p in [(1, 3), (1, 4), (2, 5), (3, 6)]:
        h = random_form(3, e, F, rng)
        r_fwd = mult_map(ring, h, p).rank
        r_dual = mult_map(ring, h, s - p + e).rank
        assert r_fwd == r_dual, (e, p)


@pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (2, 6)])
def test_fermat_wlp_holds(n, d):
    ring = fermat_ring(n, d, F)
    rep = wlp_sweep(ring, trials=3, rng_seed=0)
    assert rep.holds
    assert set(rep.verdicts) == set(range(1, ring.socle + 1))
    assert all(v.certified for v in rep.verdicts.values())
    assert all(v.failure_bound == Fraction(0) for v in rep.verdicts.values())


def test_toy_binary_cubic_wlp():
    # R = k[x0,x1]/(x0^2, x1^2): dims 1,2,1; both maps have rank 1
    ring = fermat_ring(1, 3, F)
    rep = wlp_sweep(ring)
    assert rep.holds
    assert rep.verdicts[1].best_rank == 1
    assert rep.verdicts[2].best_rank == 1


def test_small_prime_deficiency_vs_large_prime():
    # over F_5 only 256 of 624 nonzero linear forms reach full rank on the
    # Fermat quartic R_3 -> R_4, and the seed-0 stream happens to miss on
    # every trial; the same input at a larger prime certifies immediately,
    # which is why retrying at another prime is the documented response to
    # a deficiency verdict
    small = fermat_ring(3, 4, PrimeField(5))
    assert small.certify_smooth()
    v5 = certify_general_max_rank(small, 1, 4, trials=4, rng_seed=0)
    assert v5.outcome == PROBABLY_DEFICIENT
    assert v5.best_rank == 15 and v5.required_rank == 16
    assert v5.witness is not None
    assert 0 < v5.failure_bound <= 1
    big = fermat_ring(3, 4, PrimeField(10007))
    vbig = certify_general_max_rank(big, 1, 4, trials=4, rng_seed=0)
    assert vbig.certified and vbig.best_rank == 16


def test_deficiency_witness_annihilates():
    small = fermat_ring(3, 4, PrimeField(5))
    v = certify_general_max_rank(small, 1, 4, trials=2, rng_seed=0)
    assert v.outcome == PROBABLY_DEFICIENT
    g, h = v.witness, v.multiplier
    assert g is not None and h is not None
    # h*g must reduce to zero against the degree-4 echelon
    gm = mult_map(small, h, 4)
    assert gm.rank < gm.required_rank


def test_failure_bound_value():
    small = fermat_ring(3, 4, PrimeField(5))
    v = certify_general_max_rank(small, 1, 4, trials=3, rng_seed=0)
    assert v.failure_bound == min(Fraction(16, 5) ** 3, Fraction(1))
    assert v.failure_bound == 1  # 16/5 > 1, so the cap engages


def test_vacuous_certificate():
    ring = fermat_ring(2, 4, F)
    v = certify_general_max_rank(ring, 1, ring.socle + 1, trials=3)
    assert v.certified and v.required_rank == 0 and v.trials_used == 0
    assert v.failure_bound == Fraction(0)


def test_certificate_deterministic_in_seed():
    ring = fermat_ring(3, 4, F)
    a = certify_general_max_rank(ring, 2, 5, trials=3, rng_seed=42)
    b = certify_general_max_rank(ring, 2, 5, trials=3, rng_seed=42)
    assert (a.outcome, a.best_rank, a.trials_used) == \
        (b.outcome, b.best_rank, b.trials_used)
    assert a.multiplier == b.multiplier


def test_trial_rng_streams_disjoint():
    draws = {
        (s, pr, e, p, t): trial_rng(s, pr, e, p, t).randrange(1 << 62)
        for s in (0, 1) for pr in (5, 10007) for e in (1, 2)
        for p in (3, 4) for t in (0, 1)
    }
    assert len(set(draws.values())) == len(draws)


def test_wlp_shared_multiplier_reused():
    ring = fermat_ring(3, 4, F)
    rep = wlp_sweep(ring, rng_seed=0)
    assert rep.shared_multiplier.degree == 1
    for v in rep.verdicts.values():
        if v.required_rank > 0 and v.trials_used == 1:
            assert v.multiplier == rep.shared_multiplier


def test_wlp_falls_back_where_the_shared_form_fails():
    # at p=5 the shared linear form misses maximal rank into degrees 4..7 of
    # the Fermat quartic in five variables; 4 and 7 certify with a fresh
    # sample, 5 and 6 stay one short after every trial
    rep = wlp_sweep(fermat_ring(4, 4, PrimeField(5)), trials=3, rng_seed=2)
    for p in (4, 7):
        v = rep.verdicts[p]
        assert v.outcome == CERTIFIED_MAX_RANK and v.trials_used == 1
        assert v.multiplier != rep.shared_multiplier
    for p in (5, 6):
        v = rep.verdicts[p]
        assert v.outcome == PROBABLY_DEFICIENT and v.trials_used == 3
        assert (v.best_rank, v.required_rank) == (44, 45)
        assert v.witness is not None and v.witness.degree == p - 1
    assert not rep.holds


def direct_sweep(ring, trials, rng_seed):
    """wlp_sweep with every degree computed from its own map: the shared
    form first, fresh samples where it fails, nothing read from a mirror."""
    shared = random_form(ring.n, 1, ring.field, trial_rng(rng_seed, ring.field.p, 1, 0, 0))
    verdicts = {}
    for p in range(1, ring.socle + 1):
        dim_a, dim_b = ring.graded_dim(p - 1), ring.graded_dim(p)
        required = min(dim_a, dim_b)
        if required == 0:
            verdicts[p] = RankVerdict(CERTIFIED_MAX_RANK, 0, dim_a, dim_b,
                                      trials_used=0, failure_bound=Fraction(0))
            continue
        gm = mult_map(ring, shared, p)
        if gm.rank == required:
            verdicts[p] = RankVerdict(CERTIFIED_MAX_RANK, gm.rank, dim_a, dim_b,
                                      trials_used=1, failure_bound=Fraction(0),
                                      multiplier=shared)
        else:
            verdicts[p] = certify_general_max_rank(ring, 1, p, trials, rng_seed)
    return verdicts


def seeded_ring(n, d, prime):
    rng = random.Random(100 * n + d)
    terms = {m: rng.randint(-9, 9) for m in enumerate_monomials(n, d)}
    return JacobianRing(HomogeneousForm.from_terms(
        n, d, {m: c for m, c in terms.items() if c}, PrimeField(prime)))


# (label, ring factory, rng_seed, the degrees read from their mirror)
MIRROR_CASES = [
    ("fermat-n3d4-p10007", lambda: fermat_ring(3, 4, PrimeField(10007)), 0, [5, 6, 7, 8]),
    ("seeded-n3d5-p20", lambda: seeded_ring(3, 5, 1048573), 0, list(range(7, 13))),
    ("seeded-n4d4-p62", lambda: seeded_ring(4, 4, (1 << 62) - 57), 0, list(range(6, 11))),
    # degrees 4..7 fall back to fresh samples, so 6 and 7 are computed
    ("fermat-n4d4-p5", lambda: fermat_ring(4, 4, PrimeField(5)), 2, [8, 9, 10]),
    # not a smooth form, so no degree is read from its mirror
    ("singular-quartic", lambda: JacobianRing(parse_form(
        "x0^2*x1^2 + x1^4 + x2^4 + x3^4", 3, F)), 0, []),
]


@pytest.mark.parametrize("label,make,seed,mirrored", MIRROR_CASES,
                         ids=[c[0] for c in MIRROR_CASES])
def test_mirrored_wlp_sweep_matches_a_direct_sweep(label, make, seed, mirrored):
    ring = make()
    rep = wlp_sweep(ring, trials=3, rng_seed=seed)
    assert rep.mirrored == mirrored
    assert ring.certify_smooth() == bool(mirrored)
    direct = direct_sweep(ring, 3, seed)
    assert sorted(rep.verdicts) == sorted(direct) == list(range(1, ring.socle + 1))
    for p, want in direct.items():
        assert rep.verdicts[p] == want, p
    assert rep.holds == all(v.certified for v in direct.values())


# (label, ring factory, rng_seed, the degrees whose verdict descended from
# the middle degree (socle+1)//2)
DESCENT_CASES = [
    ("fermat-n3d4-p10007", MIRROR_CASES[0][1], 0, [1, 2, 3]),
    ("seeded-n3d5-p20", MIRROR_CASES[1][1], 0, [1, 2, 3, 4, 5]),
    ("seeded-n4d4-p62", MIRROR_CASES[2][1], 0, [1, 2, 3, 4]),
    # the shared form is not injective into degree 5, the middle one
    ("fermat-n4d4-p5", MIRROR_CASES[3][1], 2, []),
    ("singular-quartic", MIRROR_CASES[4][1], 0, []),
]


@pytest.mark.parametrize("label,make,seed,descended", DESCENT_CASES,
                         ids=[c[0] for c in DESCENT_CASES])
def test_wlp_sweep_descends_from_the_middle_degree(monkeypatch, label, make, seed, descended):
    # once the shared form is injective into the middle degree, that one map
    # is all the sweep builds: every lower degree descends from it and every
    # higher one is mirrored; otherwise the middle map is built once and the
    # lower degrees are computed as before
    import varcert.lefschetz as lefschetz
    ring = make()
    smooth = ring.certify_smooth()
    built = []

    def counting(r, h, p):
        built.append((p, h))
        return mult_map(r, h, p)

    monkeypatch.setattr(lefschetz, "mult_map", counting)
    rep = wlp_sweep(ring, trials=3, rng_seed=seed)
    top = (ring.socle + 1) // 2
    assert rep.descended == descended
    if descended:
        assert built == [(top, rep.shared_multiplier)]
        assert sorted(rep.descended + [top] + rep.mirrored) == list(range(1, ring.socle + 1))
    elif smooth:
        assert [p for p, h in built if h is rep.shared_multiplier].count(top) == 1
    for p in rep.descended:
        v = rep.verdicts[p]
        assert v.certifies_injectivity() and v.multiplier is rep.shared_multiplier
        assert v.best_rank == v.required_rank == ring.graded_dim(p - 1)


def test_injectivity_descends_on_fermat():
    ring = fermat_ring(3, 4, F)
    ell = parse_form("x0 + 2x1 + 3x2 + 5x3", 3, F)
    assert mult_map(ring, ell, 4).is_injective()
    assert injectivity_descends(ring, ell)


def test_injectivity_descends_requires_injective_top():
    ring = fermat_ring(3, 4, F)
    ell = x(0, 3)  # x x0 has rank 13 < 16 into degree 4
    assert not mult_map(ring, ell, 4).is_injective()
    with pytest.raises(ValueError):
        injectivity_descends(ring, ell)


def canonical_map(ring, h, p):
    """The canonical echelon of the degree-p ideal matrix and x h into
    degree p written in its free columns, the standard monomials: the
    product of each source basis monomial, reduced by that echelon."""
    ref = rref(ideal_matrix(ring, p))
    source = ring.quotient_basis(p - h.degree)
    keys = monomial_keys(ring.n, p)
    cols = keys.columns(keys.of(source)[:, None] + keys.of(list(h.terms)))
    block = np.zeros((len(source), ref.ncols), dtype=np.int64)
    block[np.arange(len(source))[:, None], cols] = list(h.terms.values())
    reduced = reduce_rows(ref, block)
    return ref, FieldMatrix.from_array(ring.field.p, reduced[:, list(ref.free_columns())].T)


# (label, ring factory, the variable to multiply by or None for random
# linear forms, target degrees: relation degrees past the middle, where
# dim R_{p-1} > dim R_p and every map has a kernel)
MAP_REFERENCE_CASES = [
    ("seeded-n3d5-p20", lambda: seeded_ring(3, 5, 1048573), None, range(8, 13)),
    ("seeded-n4d4-p62", lambda: seeded_ring(4, 4, (1 << 62) - 57), None, range(7, 12)),
    ("fermat-n3d4-x0", lambda: fermat_ring(3, 4, F), 0, [7]),
]


@pytest.mark.parametrize("label,make,var,degrees", MAP_REFERENCE_CASES,
                         ids=[c[0] for c in MAP_REFERENCE_CASES])
def test_maps_into_relation_degrees_match_the_canonical_echelon(label, make, var, degrees):
    # a relation degree's basis is products x_k b, not the standard
    # monomials; that changes the map's matrix by an invertible row
    # operation only, so its rank, its unique echelon and the kernel
    # witness are those of the map in the canonical echelon's free columns
    ring = make()
    rng = random.Random(5)
    for p in degrees:
        h = x(var, ring.n) if var is not None else random_form(ring.n, 1, ring.field, rng)
        gm = mult_map(ring, h, p)
        assert {st["degree"]: st["route"] for st in ring.stages()}[p] == "relation"
        ref, canon = canonical_map(ring, h, p)
        want = rref(canon)
        assert gm.rank == want.rank, p
        assert gm.echelon.pivots == want.pivots, p
        assert np.array_equal(gm.echelon.free_block(), want.free_block()), p
        vec = kernel_witness(gm.matrix, gm.echelon)
        assert vec is not None and vec == kernel_witness(canon, want), p
        # kernel_form verifies h*G = 0 itself; check it in the canonical echelon too
        prod = multiply(h, gm.kernel_form())
        keys = monomial_keys(ring.n, p)
        dense = np.zeros((1, ref.ncols), dtype=np.int64)
        dense[0, keys.columns(keys.of(list(prod.terms)))] = list(prod.terms.values())
        assert not reduce_rows(ref, dense).any(), p
