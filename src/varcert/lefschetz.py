"""Multiplication maps between graded pieces and randomized max-rank
certificates.

Maximal rank of x h: R_{p-e} -> R_p is a Zariski-open condition on the
coefficients of h, so a single random sample that achieves it proves the
statement for general h; repeated failure only yields a quantified
ProbablyDeficient verdict, never a disproof.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactla import EchelonResult, FieldMatrix, kernel_witness, matmul_modp, rref
from .jacobian import JacobianRing
from .polyring import HomogeneousForm, monomial_keys, multiply, random_form

CERTIFIED_MAX_RANK = "CertifiedMaxRank"
PROBABLY_DEFICIENT = "ProbablyDeficient"

DEFAULT_TRIALS = 3


class DegreeMismatch(Exception):
    pass


def trial_rng(seed: int, prime: int, e: int, p: int, trial: int) -> random.Random:
    """Independent stream per (seed, prime, multiplier degree, target degree,
    trial), so a sample does not depend on which degrees were tried before."""
    digest = hashlib.sha256(f"{seed}|{prime}|{e}|{p}|{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass
class GradedMap:
    """x h: R_{p-e} -> R_p written in the quotient-basis coordinates."""

    ring: JacobianRing
    h: HomogeneousForm
    source_degree: int
    target_degree: int
    matrix: FieldMatrix  # target_dim rows x source_dim columns
    echelon: EchelonResult  # of matrix, kept for the kernel witness

    @property
    def rank(self) -> int:
        return self.echelon.rank

    @property
    def source_dim(self) -> int:
        return self.matrix.ncols

    @property
    def target_dim(self) -> int:
        return self.matrix.nrows

    @property
    def required_rank(self) -> int:
        return min(self.source_dim, self.target_dim)

    def is_injective(self) -> bool:
        return self.rank == self.source_dim

    def kernel_form(self) -> Optional[HomogeneousForm]:
        """Lift of a kernel vector to a degree-(p-e) form G with h*G = 0 in
        R_p, re-verified by an independent multiplication before return."""
        vec = kernel_witness(self.matrix, self.echelon)
        if vec is None:
            return None
        basis = self.ring.quotient_basis(self.source_degree)
        terms = {m: c for m, c in zip(basis, vec) if c}
        g = HomogeneousForm.from_terms(self.ring.n, self.source_degree, terms,
                                       self.ring.field)
        prod = multiply(self.h, g)
        keys = monomial_keys(self.ring.n, self.target_degree)
        rows = self.ring.normal_forms(self.target_degree, keys.columns(keys.of(list(prod.terms))))
        coeffs = np.array([list(prod.terms.values())], dtype=np.int64)
        if matmul_modp(coeffs, rows, self.ring.field.p).any():
            raise AssertionError("kernel form fails h*G = 0 re-verification")
        return g


def mult_map(ring: JacobianRing, h: HomogeneousForm, p: int) -> GradedMap:
    """The map x h into degree p; h must be homogeneous of degree >= 1.

    Row i of its transpose is sum_t h_t NF_p[b_i t] over the terms t of h
    and the basis b_i of R_{p-e}, one exact product over the distinct
    monomials b_i t, whose normal forms are all it asks the ring for.  For
    a linear h those are the products x_k b_i, so the map is sum_k h_k M_k
    with M_k = T[ucol[k]] in a relation degree, and no normal form needs
    composing."""
    e = h.degree
    a = p - e
    if e < 1 or a < 0:
        raise DegreeMismatch(f"need deg h >= 1 and target {p} >= deg h")
    if h.n != ring.n or h.field.p != ring.field.p:
        raise DegreeMismatch("multiplier lives in a different ring")
    source_basis = ring.quotient_basis(a)
    keys = monomial_keys(ring.n, p)
    cols = keys.columns(keys.of(source_basis)[:, None] + keys.of(list(h.terms)))
    mons, at = np.unique(cols, return_inverse=True)
    block = np.zeros((len(source_basis), mons.size), dtype=np.int64)
    # distinct terms of h land in distinct columns of each row
    block[np.arange(len(source_basis))[:, None], at.reshape(cols.shape)] = list(h.terms.values())
    nf = ring.normal_forms(p, mons)
    mat = FieldMatrix.from_array(ring.field.p, matmul_modp(block, nf, ring.field.p).T)
    return GradedMap(ring, h, a, p, mat, rref(mat))


@dataclass
class RankVerdict:
    outcome: str
    best_rank: int
    required_rank: int
    source_dim: int
    target_dim: int
    trials_used: int
    failure_bound: Fraction
    witness: Optional[HomogeneousForm] = None
    multiplier: Optional[HomogeneousForm] = None

    @property
    def certified(self) -> bool:
        return self.outcome == CERTIFIED_MAX_RANK

    def certifies_injectivity(self) -> bool:
        return self.certified and self.best_rank == self.source_dim


def certify_general_max_rank(ring: JacobianRing, e: int, p: int,
                             trials: int = DEFAULT_TRIALS,
                             rng_seed: int = 0) -> RankVerdict:
    """Sample h uniformly over all degree-e coefficient vectors; the first
    sample of maximal rank certifies the generic statement.  All-trials
    failure returns ProbablyDeficient with a verified kernel witness for the
    last h and the miss bound (required_rank / prime)^trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prime = ring.field.p
    dim_a = ring.graded_dim(p - e)
    dim_b = ring.graded_dim(p)
    required = min(dim_a, dim_b)
    if required == 0:
        return RankVerdict(CERTIFIED_MAX_RANK, 0, 0, dim_a, dim_b,
                           trials_used=0, failure_bound=Fraction(0))
    best = -1
    gm = None
    for trial in range(trials):
        rng = trial_rng(rng_seed, prime, e, p, trial)
        h = random_form(ring.n, e, ring.field, rng)
        gm = mult_map(ring, h, p)
        best = max(best, gm.rank)
        if gm.rank == required:
            return RankVerdict(CERTIFIED_MAX_RANK, gm.rank, required, dim_a,
                               dim_b, trials_used=trial + 1,
                               failure_bound=Fraction(0), multiplier=h)
    bound = Fraction(required, prime) ** trials
    return RankVerdict(PROBABLY_DEFICIENT, best, required, dim_a, dim_b,
                       trials_used=trials, failure_bound=min(bound, Fraction(1)),
                       witness=gm.kernel_form(), multiplier=gm.h)


@dataclass
class WlpReport:
    verdicts: dict[int, RankVerdict]
    holds: bool
    shared_multiplier: HomogeneousForm
    mirrored: list[int]  # degrees whose verdict was read from their mirror
    descended: list[int]  # degrees whose injectivity descended from the middle one


def wlp_sweep(ring: JacobianRing, trials: int = DEFAULT_TRIALS,
              rng_seed: int = 0) -> WlpReport:
    """Certify maximal rank of x l: R_{p-1} -> R_p for every p in 1..socle.

    One shared linear form is tried across all degrees first (a single
    generic l should work everywhere at once); degrees it fails fall back
    to independent sampling.

    A certified-smooth ring is Gorenstein with socle degree s, so most
    verdicts follow from one map.  Below the middle degree top =
    (s+1)//2, injectivity descends (Harima-Migliore-Nagel-Watanabe 2003,
    Prop. 2.1): if x l: R_{top-1} -> R_top is injective, p < top and l g = 0
    for g in R_{p-1}, then l (u g) = 0, so u g = 0, for every u in
    R_{top-p}; as R_{s+1-p} = R_{top-p} R_{s+1-top}, g pairs to zero with
    R_{s+1-p}, and the perfect pairing R_{p-1} x R_{s+1-p} -> R_s gives
    g = 0.  So once the shared form's map into top is injective, every p <
    top takes the verdict that map certifies, of rank dim R_{p-1}, and no
    map is built there; those degrees are listed in `descended`.  Above the
    middle, x l: R_{p-1} -> R_p is the transpose of x l: R_{s-p} ->
    R_{s+1-p} in dual bases, with the same rank, so a degree p whose mirror
    s+1-p < p the shared form certified takes that verdict with source and
    target swapped, and no map is built; it is listed in `mirrored`.
    Either verdict is the one a direct computation gives.  When the shared
    form is not injective into top, every degree below it is computed."""
    prime = ring.field.p
    shared = random_form(ring.n, 1, ring.field, trial_rng(rng_seed, prime, 1, 0, 0))
    verdicts: dict[int, RankVerdict] = {}
    mirrored: list[int] = []
    descended: list[int] = []
    mirror = ring.certify_smooth()
    top = (ring.socle + 1) // 2
    middle = mult_map(ring, shared, top) if mirror and top >= 1 else None
    descend = middle is not None and middle.is_injective()
    for p in range(1, ring.socle + 1):
        twin = verdicts.get(ring.socle + 1 - p) if mirror else None
        if twin is not None and twin.multiplier is shared:
            verdicts[p] = replace(twin, source_dim=twin.target_dim, target_dim=twin.source_dim)
            mirrored.append(p)
            continue
        dim_a = ring.graded_dim(p - 1)
        dim_b = ring.graded_dim(p)
        required = min(dim_a, dim_b)
        if required == 0:
            verdicts[p] = RankVerdict(CERTIFIED_MAX_RANK, 0, 0, dim_a, dim_b,
                                      trials_used=0, failure_bound=Fraction(0))
            continue
        if p < top and descend:
            rank = dim_a
            descended.append(p)
        elif p == top and middle is not None:
            rank = middle.rank
        else:
            rank = mult_map(ring, shared, p).rank
        if rank == required:
            verdicts[p] = RankVerdict(CERTIFIED_MAX_RANK, rank, required,
                                      dim_a, dim_b, trials_used=1,
                                      failure_bound=Fraction(0), multiplier=shared)
        else:
            verdicts[p] = certify_general_max_rank(ring, 1, p, trials, rng_seed)
    holds = all(v.certified for v in verdicts.values())
    return WlpReport(verdicts, holds, shared, mirrored, descended)
