"""Acceptance criteria for the full pipeline, one test per criterion.

Each test finishes by printing one `[Cn PASS] ...` line (visible with -s, or
in the failure report otherwise), so a transcript of this module reads as a
checklist.  The corpus fixture pins fifty random integer-coefficient smooth
forms, ten per shape; it is shared session-wide, so dimensions computed by
an early criterion are reused by later ones.
"""

import json
import random
import time

from conftest import CORPUS_SHAPES, PRIME_A, PRIME_B
from helpers import from_rows, ideal_matrix, injectivity_descends

from varcert.cli import main as cli_main
from varcert.exactla import dense_rank_oracle, rref
from varcert.jacobian import ci_hilbert_coefficients, fermat_ring
from varcert.lefschetz import certify_general_max_rank, mult_map, wlp_sweep
from varcert.polyring import HomogeneousForm, PrimeField, variable
from varcert.variation import (
    KIND_DOUBLE_COVER,
    KIND_HYPERSURFACE,
    GeometryInput,
    cor23_regression_suite,
    maxvar,
)

FA = PrimeField(PRIME_A)
FB = PrimeField(PRIME_B)


def report(criterion: str, ok: bool, message: str) -> None:
    print(f"[{criterion} {'PASS' if ok else 'FAIL'}] {message}")
    assert ok, f"{criterion}: {message}"


def test_c1_hilbert_matches_ci_series_on_corpus(corpus_flat):
    t0 = time.perf_counter()
    checked = 0
    for entry in corpus_flat:
        ring = entry.ring(PRIME_A)
        expected = tuple(ci_hilbert_coefficients(entry.n, entry.d)) + (0,)
        assert ring.hilbert_function() == expected, entry.label
        checked += 1
    elapsed = time.perf_counter() - t0
    report("C1", checked == 50 and elapsed < 120,
           f"{checked}/50 corpus forms match the CI Hilbert series "
           f"exactly in {elapsed:.1f}s (budget 120s)")


def test_c2_socle_and_gorenstein_symmetry(corpus_flat):
    bad = []
    for entry in corpus_flat:
        ring = entry.ring(PRIME_A)
        dims = ring.hilbert_function()
        s = ring.socle
        if dims[s] != 1 or dims[s + 1] != 0:
            bad.append(entry.label)
            continue
        if any(dims[p] != dims[s - p] for p in range(s + 1)):
            bad.append(entry.label)
    report("C2", not bad,
           f"one-dimensional socle at degree (n+1)(d-2) and symmetric "
           f"dimensions on all 50 corpus rings{' except ' + str(bad) if bad else ''}")


def test_c3_fermat_rings_satisfy_wlp():
    shapes = [(3, 4), (4, 3), (2, 6), (3, 5)]
    lines = []
    ok = True
    for n, d in shapes:
        t0 = time.perf_counter()
        rep = wlp_sweep(fermat_ring(n, d, FA), trials=3, rng_seed=0)
        elapsed = time.perf_counter() - t0
        ok = ok and rep.holds and elapsed < 60
        lines.append(f"({n},{d}) {'holds' if rep.holds else 'fails'} {elapsed:.1f}s")
    report("C3", ok, "weak Lefschetz on Fermat rings: " + ", ".join(lines)
           + " (budget 60s each)")


def test_c4_theorem_cases_certify_with_two_prime_retry():
    t0 = time.perf_counter()
    results_a = cor23_regression_suite(FA, seed=0, trials=3, forms_per_case=20)
    dual_failures = []
    retried = 0
    for r in results_a:
        if r.report.certified:
            continue
        retried += 1
        lifted = HomogeneousForm.from_terms(r.n, r.d, r.form.terms, FB)
        rep_b = maxvar(GeometryInput(KIND_HYPERSURFACE, lifted), trials=3, seed=0)
        if not rep_b.certified:
            dual_failures.append((r.case, r.n, r.d))
    elapsed = time.perf_counter() - t0
    report("C4", len(results_a) == 60 and not dual_failures,
           f"60 random smooth forms across 3 theorem cases certified "
           f"({retried} needed a second prime, {len(dual_failures)} failed "
           f"both) in {elapsed:.1f}s")


def test_c5_echelon_rank_agrees_with_dense_oracle(corpus_flat):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    mismatches = 0
    random_checked = 0
    for _ in range(200):
        r = rng.randint(1, 120) if rng.random() < 0.9 else rng.randint(121, 500)
        c = rng.randint(1, 120) if rng.random() < 0.9 else rng.randint(121, 500)
        density = rng.choice([0.05, 0.3, 1.0])
        p = rng.choice([5, 10007, PRIME_A, PRIME_B])
        rows = [{j: rng.randrange(1, p) for j in range(c) if rng.random() < density}
                for _ in range(r)]
        mat = from_rows(p, c, rows)
        if rref(mat).rank != dense_rank_oracle(mat):
            mismatches += 1
        random_checked += 1
    ideal_checked = 0
    for entry in corpus_flat:
        ring = entry.ring(PRIME_A)
        ring.hilbert_function()
        for degree, dim in sorted({st["degree"]: st["dim"] for st in ring.stages()}.items()):
            mat = ideal_matrix(ring, degree)
            if mat.nrows * mat.ncols > 10 ** 7 or mat.nrows == 0:
                continue
            if dense_rank_oracle(mat) != mat.ncols - dim:
                mismatches += 1
            ideal_checked += 1
    elapsed = time.perf_counter() - t0
    report("C5", mismatches == 0 and random_checked == 200 and ideal_checked == 400,
           f"dense oracle agrees on {random_checked} random matrices and "
           f"{ideal_checked} ideal matrices, {mismatches} mismatches, "
           f"in {elapsed:.1f}s")


def test_c6_fermat_quartic_kernel_is_certified():
    ring = fermat_ring(3, 4, FA)
    gm = mult_map(ring, variable(0, 3, FA), 4)
    witness = gm.kernel_form()
    ok = (gm.source_dim, gm.target_dim, gm.rank) == (16, 19, 13) \
        and witness is not None \
        and all(m[0] == 2 for m in witness.terms)
    report("C6", ok,
           f"x x0 on the Fermat quartic: rank {gm.rank}/16 into dim 19, "
           f"kernel dimension {gm.source_dim - gm.rank}, witness re-verified")


def test_c7_double_cover_coherence_and_descent(corpus):
    coherent = 0
    incoherent = []
    for shape in ((3, 4), (4, 4)):
        for entry in corpus[shape]:
            form = entry.form(PRIME_A)
            h = maxvar(GeometryInput(KIND_HYPERSURFACE, form, 1),
                       trials=3, seed=0, ring=entry.ring(PRIME_A))
            c = maxvar(GeometryInput(KIND_DOUBLE_COVER, form, 1),
                       trials=3, seed=0, ring=entry.ring(PRIME_A))
            if (h.verdict, h.detail, h.provenance) == (c.verdict, c.detail, c.provenance):
                coherent += 1
            else:
                incoherent.append(entry.label)
    descended = 0
    for entry in [corpus[shape][i] for shape in CORPUS_SHAPES for i in (0, 1)]:
        ring = entry.ring(PRIME_A)
        rv = certify_general_max_rank(ring, 1, entry.d, trials=3, rng_seed=0)
        assert rv.certifies_injectivity(), entry.label
        assert injectivity_descends(ring, rv.multiplier), entry.label
        descended += 1
    report("C7", coherent == 20 and not incoherent and descended == 10,
           f"double-cover and hypersurface e=1 reports agree on {coherent}/20 "
           f"forms; injectivity descends below degree d on {descended}/10")


def test_c8_cli_output_is_deterministic(capsys, tmp_path):
    pa = str(PRIME_A)
    invocations = [
        ["hilbert", "--fermat", "3", "4", "--prime", pa],
        ["wlp", "--fermat", "4", "3", "--prime", pa],
        ["maxvar", "hypersurface", "--fermat", "3", "5", "-e", "2", "--prime", pa],
        ["maxvar", "double-cover", "--fermat", "2", "6", "--prime", pa],
        ["maxvar", "hypersurface", "--fermat", "3", "4", "--prime", "5"],
    ]
    stable = 0
    for argv in invocations:
        outs = []
        for _ in range(2):
            cli_main(argv + ["--format", "json"])
            doc = json.loads(capsys.readouterr().out)
            doc.pop("timings_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        if outs[0] == outs[1]:
            stable += 1
    report("C8", stable == len(invocations),
           f"{stable}/{len(invocations)} CLI invocations byte-identical "
           f"across repeat runs once timings are stripped")


def test_c9_verdicts_stable_across_primes(corpus_flat):
    t0 = time.perf_counter()
    disagreements = []
    for entry in corpus_flat:
        kind = KIND_DOUBLE_COVER if (entry.n, entry.d) == (2, 6) else KIND_HYPERSURFACE
        va = maxvar(GeometryInput(kind, entry.form(PRIME_A), 1),
                    trials=3, seed=0, ring=entry.ring(PRIME_A))
        vb = maxvar(GeometryInput(kind, entry.form(PRIME_B), 1),
                    trials=3, seed=0, ring=entry.ring(PRIME_B))
        if va.verdict != vb.verdict:
            disagreements.append((entry.label, va.verdict, vb.verdict))
    elapsed = time.perf_counter() - t0
    report("C9", not disagreements,
           f"e=1 verdicts agree at primes {PRIME_A} and {PRIME_B} on all 50 "
           f"corpus forms ({len(disagreements)} disagreements) in {elapsed:.1f}s")
