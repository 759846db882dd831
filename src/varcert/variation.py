"""One decision procedure for maximal variation of hypersurfaces and of
double covers branched over them.

Everything reduces to one ring predicate: x h: R_{d-e} -> R_d injective for
h general of degree e, computed on the Jacobian ring of the defining (or
branch) form.  For e = 1 the criterion is an equivalence; for e >= 2 it is
sufficient only, and reports say so.  A deficiency observed at one prime is
never evidence against maximal variation; the strongest negative verdict is
NoEvidence with a quantified failure bound and a retry-prime hint.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .jacobian import JacobianRing
from .lefschetz import RankVerdict, certify_general_max_rank
from .polyring import HomogeneousForm, random_form

KIND_HYPERSURFACE = "hypersurface"
KIND_DOUBLE_COVER = "double-cover"

MAXIMAL_VARIATION_CERTIFIED = "MaximalVariationCertified"
NO_EVIDENCE = "NoEvidence"
TRIVIALLY_CERTIFIED = "TriviallyCertified"
PRECONDITION_VIOLATED = "PreconditionViolated"
SMOOTHNESS_NOT_CERTIFIED = "SmoothnessNotCertified"

SUFFICIENCY_NOTE = ("criterion is sufficient only; a failed certificate does "
                    "not disprove maximal variation")
RETRY_NOTE = "a deficiency mod one prime proves nothing; retry at a different prime"


@dataclass
class GeometryInput:
    """A hypersurface X = {F = 0}, or a double cover of projective space
    branched over it, together with the line-bundle twist e."""

    kind: str
    form: HomogeneousForm
    e: int = 1

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def d(self) -> int:
        return self.form.degree

    def gate_violation(self) -> Optional[str]:
        """The first theorem hypothesis the input violates, or None; an
        unknown kind raises ValueError."""
        if self.kind not in (KIND_HYPERSURFACE, KIND_DOUBLE_COVER):
            raise ValueError(f"unknown kind {self.kind!r}")
        n, d = self.n, self.d
        if self.e < 1:
            return f"e = {self.e} must be >= 1"
        if self.kind == KIND_HYPERSURFACE:
            if n < 3:
                return f"n = {n} violates n >= 3"
            if d < 3:
                return f"d = {d} violates d >= 3"
            if n == 3 and d < 4:
                return f"d = {d} violates d >= 4 when n = 3"
            return None
        if n < 2:
            return f"n = {n} violates n >= 2"
        if d % 2 != 0:
            return f"d = {d} violates even branch degree"
        if d < 4:
            return f"d = {d} violates d >= 4"
        if n == 2 and d < 6:
            return f"d = {d} violates d >= 6 when n = 2"
        return None


@dataclass
class VariationReport:
    verdict: str
    criterion: str
    detail: str
    provenance: dict = dc_field(default_factory=dict)
    failure_bound: Optional[Fraction] = None
    witness: Optional[HomogeneousForm] = None
    note: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.verdict in (MAXIMAL_VARIATION_CERTIFIED, TRIVIALLY_CERTIFIED)


def _provenance(prime: int, seed: int, trials: int,
                dim_source: Optional[int] = None, dim_target: Optional[int] = None,
                rank: Optional[int] = None) -> dict:
    return {"prime": prime, "seed": seed, "trials": trials,
            "dim_source": dim_source, "dim_target": dim_target, "rank": rank}


def _shortcut_report(ring: JacobianRing, e: int, criterion: str,
                     seed: int, trials: int) -> VariationReport:
    d = ring.degree
    if e > d:
        return VariationReport(
            TRIVIALLY_CERTIFIED, criterion,
            f"R_{d - e} = 0 in negative degree, nothing to prove",
            _provenance(ring.field.p, seed, trials, dim_source=0))
    # e = d: the map sends 1 to h, injective as soon as R_d is nonzero,
    # which certified smoothness guarantees because the socle sits at
    # degree (n+1)(d-2) >= d
    dim_d = ring.graded_dim(d)
    if dim_d < 1:
        raise AssertionError("certified ring with empty R_d below the socle")
    return VariationReport(
        TRIVIALLY_CERTIFIED, criterion,
        f"e = d: a general h is nonzero in R_{d} (dim {dim_d} >= 1)",
        _provenance(ring.field.p, seed, trials, dim_source=1,
                    dim_target=dim_d, rank=1))


def _injectivity_report(ring: JacobianRing, e: int, criterion: str,
                        trials: int, seed: int,
                        note: Optional[str]) -> VariationReport:
    d = ring.degree
    rv = certify_general_max_rank(ring, e, d, trials=trials, rng_seed=seed)
    if rv.required_rank != rv.source_dim:
        raise AssertionError(
            "dim R_{d-e} > dim R_d on a certified ring; series unimodality bug")
    prov = _provenance(ring.field.p, seed, trials, rv.source_dim,
                       rv.target_dim, rv.best_rank)
    if rv.certifies_injectivity():
        return VariationReport(MAXIMAL_VARIATION_CERTIFIED, criterion,
                               f"x h injective: rank {rv.best_rank} = dim R_{d - e}",
                               prov, note=note)
    detail = (f"rank {rv.best_rank} < {rv.required_rank} after {rv.trials_used} "
              f"trials; {RETRY_NOTE}")
    return VariationReport(NO_EVIDENCE, criterion, detail, prov,
                           failure_bound=rv.failure_bound, witness=rv.witness,
                           note=note)


def maxvar(inp: GeometryInput, trials: int = 3, seed: int = 0,
           ring: Optional[JacobianRing] = None) -> VariationReport:
    """The maximal-variation verdict for a hypersurface or a double cover,
    read from inp.kind: the gate, the smoothness certificate of the form
    (of the branch form for a double cover), then x h: R_{d-e} -> R_d.  A
    double cover with 1 < e < d is decided by the e=1 criterion."""
    viol = inp.gate_violation()
    if viol:
        return VariationReport(PRECONDITION_VIOLATED, f"{inp.kind} gate", viol)
    double = inp.kind == KIND_DOUBLE_COVER
    name, noun = ("double cover", "branch form") if double else ("hypersurface", "form")
    if ring is None:
        ring = JacobianRing(inp.form)
    if not ring.certify_smooth():
        return VariationReport(
            SMOOTHNESS_NOT_CERTIFIED, "smoothness certificate",
            f"R_{ring.socle + 1} does not vanish at prime {ring.field.p}; "
            f"the {noun} may be singular, or this prime may be unlucky",
            _provenance(ring.field.p, seed, trials))
    e, d = inp.e, inp.d
    if e >= d:
        label = f"shortcut e {'>' if e > d else '='} d"
        return _shortcut_report(ring, e, f"double cover {label}" if double else label,
                                seed, trials)
    if e == 1:
        return _injectivity_report(ring, 1, f"{name} e=1 (iff)", trials, seed, note=None)
    via = " via e=1" if double else ""
    rep = _injectivity_report(ring, 1 if double else e, f"{name} e={e}{via} (sufficient)",
                              trials, seed, note=SUFFICIENCY_NOTE)
    if double and rep.verdict == NO_EVIDENCE:
        rep.detail = f"e=1 criterion did not certify: {rep.detail}"
    return rep


DEFAULT_CASES = (
    ("d >= n+2", 3, 5),
    ("surface in P^3", 3, 4),
    ("cubic threefold", 4, 3),
)

COLUMN_BUDGET = 2000


@dataclass
class CaseResult:
    case: str
    n: int
    d: int
    form: HomogeneousForm
    report: VariationReport


def cor23_regression_suite(field, seed: int = 0, trials: int = 3,
                           forms_per_case: int = 20,
                           cases=DEFAULT_CASES) -> list[CaseResult]:
    """Random smooth forms in each covered theorem case must certify; used
    as a regression battery, since over the complex numbers these are
    theorems and a reproducible multi-prime failure would mean a bug."""
    import math
    results = []
    for case, n, d in cases:
        top = (n + 1) * (d - 2) + 1
        cols = math.comb(n + top, n)
        if cols > COLUMN_BUDGET:
            raise ValueError(
                f"case ({n},{d}) needs {cols}-column matrices, over the "
                f"{COLUMN_BUDGET} desk-scale budget")
        digest = hashlib.sha256(f"{seed}|cor23|{n}|{d}|{field.p}".encode()).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        for _ in range(forms_per_case):
            form, ring = _sample_smooth_form(n, d, field, rng)
            rep = maxvar(GeometryInput(KIND_HYPERSURFACE, form),
                         trials=trials, seed=seed, ring=ring)
            results.append(CaseResult(case, n, d, form, rep))
    return results


def _sample_smooth_form(n: int, d: int, field, rng,
                        max_attempts: int = 50) -> tuple[HomogeneousForm, JacobianRing]:
    """A random nonzero form certified smooth, with the ring that certified
    it and the echelons it computed."""
    for _ in range(max_attempts):
        form = random_form(n, d, field, rng)
        if form.is_zero():
            continue
        ring = JacobianRing(form)
        if ring.certify_smooth():
            return form, ring
    raise RuntimeError(f"no smooth form found in {max_attempts} attempts at "
                       f"(n={n}, d={d}, p={field.p})")
