"""Maximal-variation decision procedures for both geometry kinds."""

from fractions import Fraction

import pytest

from varcert.jacobian import JacobianRing, fermat_ring
from varcert.polyring import PrimeField, parse_form
from varcert.variation import (
    KIND_DOUBLE_COVER,
    KIND_HYPERSURFACE,
    MAXIMAL_VARIATION_CERTIFIED,
    NO_EVIDENCE,
    PRECONDITION_VIOLATED,
    SMOOTHNESS_NOT_CERTIFIED,
    SUFFICIENCY_NOTE,
    TRIVIALLY_CERTIFIED,
    CaseResult,
    GeometryInput,
    cor23_regression_suite,
    maxvar,
)

F = PrimeField(1048573)


def fermat_form(n, d, field=F):
    return fermat_ring(n, d, field).form


GATE_CASES = [
    (KIND_HYPERSURFACE, 2, 4, 1, "n = 2"),
    (KIND_HYPERSURFACE, 4, 2, 1, "d = 2"),
    (KIND_HYPERSURFACE, 3, 3, 1, "d = 3"),
    (KIND_HYPERSURFACE, 4, 3, 0, "e = 0"),
    (KIND_DOUBLE_COVER, 1, 6, 1, "n = 1"),
    (KIND_DOUBLE_COVER, 3, 5, 1, "even branch"),
    (KIND_DOUBLE_COVER, 3, 2, 1, "d = 2"),
    (KIND_DOUBLE_COVER, 2, 4, 1, "d = 4"),
    (KIND_DOUBLE_COVER, 2, 6, -1, "e = -1"),
]


@pytest.mark.parametrize("kind,n,d,e,label", GATE_CASES,
                         ids=[c[4] for c in GATE_CASES])
def test_gates_reject(kind, n, d, e, label):
    inp = GeometryInput(kind, fermat_form(n, d), e)
    assert inp.gate_violation() is not None
    rep = maxvar(inp)
    assert rep.verdict == PRECONDITION_VIOLATED
    assert not rep.certified


def test_gates_admit_boundary_shapes():
    assert GeometryInput(KIND_HYPERSURFACE, fermat_form(3, 4)).gate_violation() is None
    assert GeometryInput(KIND_HYPERSURFACE, fermat_form(4, 3)).gate_violation() is None
    assert GeometryInput(KIND_DOUBLE_COVER, fermat_form(2, 6)).gate_violation() is None
    assert GeometryInput(KIND_DOUBLE_COVER, fermat_form(3, 4)).gate_violation() is None


def test_unknown_kind_rejected():
    inp = GeometryInput("branched-triple", fermat_form(3, 4))
    with pytest.raises(ValueError):
        inp.gate_violation()
    with pytest.raises(ValueError):
        maxvar(inp)


def test_hypersurface_e1_certifies_fermat_quartic():
    rep = maxvar(GeometryInput(KIND_HYPERSURFACE, fermat_form(3, 4)))
    assert rep.verdict == MAXIMAL_VARIATION_CERTIFIED
    assert rep.criterion == "hypersurface e=1 (iff)"
    assert rep.provenance["rank"] == rep.provenance["dim_source"] == 16
    assert rep.provenance["dim_target"] == 19
    assert rep.failure_bound is None and rep.witness is None and rep.note is None


def test_shortcuts():
    inp_gt = GeometryInput(KIND_HYPERSURFACE, fermat_form(3, 4), e=5)
    rep_gt = maxvar(inp_gt)
    assert rep_gt.verdict == TRIVIALLY_CERTIFIED and "negative degree" in rep_gt.detail
    inp_eq = GeometryInput(KIND_HYPERSURFACE, fermat_form(3, 4), e=4)
    rep_eq = maxvar(inp_eq)
    assert rep_eq.verdict == TRIVIALLY_CERTIFIED
    assert rep_eq.provenance["rank"] == 1


def test_sufficient_range_certifies_when_e1_does():
    # on a ring where e=1 certifies, every larger twist below d should too
    form = fermat_form(3, 5)
    base = maxvar(GeometryInput(KIND_HYPERSURFACE, form, 1))
    assert base.verdict == MAXIMAL_VARIATION_CERTIFIED
    for e in (2, 3, 4):
        rep = maxvar(GeometryInput(KIND_HYPERSURFACE, form, e))
        assert rep.verdict == MAXIMAL_VARIATION_CERTIFIED, e
        assert rep.note == SUFFICIENCY_NOTE
        assert f"e={e}" in rep.criterion


def test_double_cover_coherence_with_hypersurface_e1():
    # both kinds admit (3,4); the e=1 ring predicate is identical, so the
    # reports must agree in everything except the criterion label
    form = fermat_form(3, 4)
    h = maxvar(GeometryInput(KIND_HYPERSURFACE, form, 1), trials=3, seed=11)
    c = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 1), trials=3, seed=11)
    assert h.criterion != c.criterion
    assert (h.verdict, h.detail, h.provenance, h.failure_bound, h.witness) == \
        (c.verdict, c.detail, c.provenance, c.failure_bound, c.witness)


def test_double_cover_mid_twist_routes_through_e1():
    form = fermat_form(2, 6)
    rep = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 3))
    assert rep.verdict == MAXIMAL_VARIATION_CERTIFIED
    assert rep.criterion == "double cover e=3 via e=1 (sufficient)"
    assert rep.note == SUFFICIENCY_NOTE
    base = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 1))
    assert rep.provenance == base.provenance


def test_double_cover_shortcuts():
    form = fermat_form(2, 6)
    rep = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 7))
    assert rep.verdict == TRIVIALLY_CERTIFIED
    rep_eq = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 6))
    assert rep_eq.verdict == TRIVIALLY_CERTIFIED


def test_singular_input_blocks_certification():
    cone = parse_form("x0^4 + x1^4 + x2^4 + 0*x3^4", 3, F)
    rep = maxvar(GeometryInput(KIND_HYPERSURFACE, cone))
    assert rep.verdict == SMOOTHNESS_NOT_CERTIFIED
    assert "may be unlucky" in rep.detail
    assert not rep.certified


def test_no_evidence_at_small_prime_with_witness():
    form = fermat_form(3, 4, PrimeField(5))
    rep = maxvar(GeometryInput(KIND_HYPERSURFACE, form), trials=3, seed=0)
    assert rep.verdict == NO_EVIDENCE
    assert rep.failure_bound == Fraction(1)  # (16/5)^3 caps at 1
    assert rep.witness is not None and rep.witness.degree == 3
    assert "retry at a different prime" in rep.detail
    assert not rep.certified


def test_report_deterministic():
    form = fermat_form(3, 4)
    a = maxvar(GeometryInput(KIND_HYPERSURFACE, form), seed=5)
    b = maxvar(GeometryInput(KIND_HYPERSURFACE, form), seed=5)
    assert (a.verdict, a.criterion, a.detail, a.provenance) == \
        (b.verdict, b.criterion, b.detail, b.provenance)


def test_external_ring_is_used():
    form = fermat_form(3, 4)
    ring = JacobianRing(form)
    rep = maxvar(GeometryInput(KIND_HYPERSURFACE, form), ring=ring)
    assert rep.certified
    # the passed ring accumulated the dims the criterion needed
    assert {3, 4, ring.socle + 1} <= {st["degree"]: st["dim"] for st in ring.stages()}.keys()


def test_cor23_small_battery():
    results = cor23_regression_suite(PrimeField(10007), seed=3, trials=3,
                                     forms_per_case=2)
    assert len(results) == 6
    for r in results:
        assert isinstance(r, CaseResult)
        assert r.report.verdict == MAXIMAL_VARIATION_CERTIFIED, (r.case, r.n, r.d)


def test_cor23_builds_one_ring_per_sampled_form(monkeypatch):
    # the ring that certified a sampled form smooth is the one its verdict
    # is computed on, so no echelon is computed twice
    from varcert import variation
    drawn, rings = [], []
    random_form, ring_class = variation.random_form, variation.JacobianRing

    def counting_form(*args, **kwargs):
        drawn.append(random_form(*args, **kwargs))
        return drawn[-1]

    class CountingRing(ring_class):
        def __init__(self, form):
            super().__init__(form)
            rings.append(self)

    monkeypatch.setattr(variation, "random_form", counting_form)
    monkeypatch.setattr(variation, "JacobianRing", CountingRing)
    results = cor23_regression_suite(PrimeField(10007), seed=3, trials=3,
                                     forms_per_case=2)
    assert len(rings) == sum(not f.is_zero() for f in drawn) >= len(results) == 6
    monkeypatch.undo()
    for r in results:
        fresh = maxvar(GeometryInput(KIND_HYPERSURFACE, r.form), trials=3, seed=3)
        assert (fresh.verdict, fresh.detail, fresh.provenance) == (
            r.report.verdict, r.report.detail, r.report.provenance)


def test_cor23_budget_guard():
    with pytest.raises(ValueError):
        cor23_regression_suite(F, forms_per_case=1,
                               cases=(("too big", 4, 6),))
