from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import degrevlex_descending
from varcert import polyring
from varcert.polyring import (
    FormSyntaxError,
    HomogeneousForm,
    NotHomogeneousError,
    PrimeField,
    VariableOutOfRangeError,
    enumerate_monomials,
    euler_check,
    fermat_form,
    form_to_str,
    is_prime,
    monomial_count,
    monomial_keys,
    multiply,
    parse_form,
    partial_derivatives,
    random_form,
    variable,
)

F = PrimeField(10007)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 10007, 1048573, 1048583, (1 << 62) - 57]
    for q in primes:
        assert is_prime(q)
    for m in [0, 1, 4, 91, 1048575, 561, 2047 * 2047]:
        assert not is_prime(m)


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(91)
    with pytest.raises(ValueError):
        PrimeField(1 << 62)


def test_enumerate_monomials_counts_and_order():
    for n in range(5):
        for p in range(7):
            ms = enumerate_monomials(n, p)
            assert len(ms) == math.comb(n + p, n) == monomial_count(n, p)
            assert all(sum(m) == p and len(m) == n + 1 for m in ms)
            # strictly descending lex, x0 most significant
            assert all(ms[i] > ms[i + 1] for i in range(len(ms) - 1))


def test_enumerate_monomials_known_rows():
    assert enumerate_monomials(1, 2) == ((2, 0), (1, 1), (0, 2))
    assert enumerate_monomials(0, 5) == ((5,),)
    assert enumerate_monomials(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def reference_exponents(n: int, p: int) -> np.ndarray:
    """The degree-p exponent rows in x0..xn, descending lex, built apart from
    the key table: stars and bars, the n bar positions among n+p slots from
    itertools, then sorted."""
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n + p), n)),
                       dtype=np.int16).reshape(monomial_count(n, p), n)
    exps = np.diff(bars, axis=1, prepend=-1, append=n + p) - 1
    return exps[np.lexsort(exps.T[::-1])[::-1]]


SMALL_SHAPES = [(n, p) for n in range(9) for p in range(7 if n < 6 else 5)]


@pytest.mark.parametrize("shapes", [SMALL_SHAPES, [(1, 1000)], [(7, 16)], [(8, 18)]],
                         ids=["small", "n1p1000", "n7p16", "n8p18"])
def test_monomial_keys_order_matches_an_independent_reference(shapes):
    for n, p in shapes:
        ref = reference_exponents(n, p)
        keys = monomial_keys(n, p)
        step = 1 << 16
        for lo in range(0, len(ref), step):
            cols = np.arange(lo, min(lo + step, len(ref)))
            assert np.array_equal(keys.exponents(cols), ref[lo:lo + step]), (n, p)
            assert np.array_equal(keys.columns(keys.of(ref[lo:lo + step])), cols), (n, p)
        if len(ref) <= 5000:
            mons = tuple(map(tuple, ref.tolist()))
            assert mons == tuple(sorted(mons, reverse=True))
            assert enumerate_monomials(n, p) == mons, (n, p)
            assert np.array_equal(keys.exponents(), ref), (n, p)
            assert np.array_equal(keys.of(mons), keys.of(ref)), (n, p)


def test_monomial_keys_degrevlex_rank():
    for n, p in SMALL_SHAPES + [(3, 12), (7, 6)]:
        mons = enumerate_monomials(n, p)
        rank = monomial_keys(n, p).degrevlex
        assert sorted(rank.tolist()) == list(range(len(mons))), (n, p)
        assert [mons[c] for c in np.argsort(rank)] == degrevlex_descending(mons), (n, p)
        assert not rank.flags.writeable


def test_monomial_keys_refuse_before_allocating(monkeypatch):
    # 128^9 = 2^63: the degree-127 keys in 9 variables overflow int64, and
    # the refusal comes before numpy builds any of the C(135, 8) keys
    class NoArrays:
        def __getattr__(self, name):
            pytest.fail(f"np.{name} called before the overflow check")

    with monkeypatch.context() as m:
        m.setattr(polyring, "np", NoArrays())
        for n, p in [(8, 127), (0, (1 << 63) - 1), (9, 1), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError):
                monomial_keys(n, p)
        with pytest.raises(ValueError, match="overflow int64"):
            enumerate_monomials(8, 127)
    # the largest degree with int64 keys in one variable: a table of one key
    assert enumerate_monomials(0, (1 << 63) - 2) == (((1 << 63) - 2,),)


def test_monomial_keys_hold_no_exponent_tuples():
    # the key tables of (7, 0..17) hold about 8 MiB; tuples held 124 MiB
    monomial_keys.cache_clear()
    enumerate_monomials.cache_clear()
    tracemalloc.start()
    try:
        for q in range(18):
            monomial_keys(7, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monomial_keys.cache_clear()
    assert peak < 32 << 20


def test_fermat_form():
    f = fermat_form(2, 3, F)
    assert f.terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    assert form_to_str(f) == "x0^3 + x1^3 + x2^3"


def test_parse_basic_and_roundtrip():
    f = parse_form("x0^2 + x0*x1", 1, F)
    assert f.degree == 2
    assert f.terms == {(2, 0): 1, (1, 1): 1}
    assert parse_form(form_to_str(f), 1, F) == f


def test_parse_juxtaposition_and_signs():
    f = parse_form("-3x0^4 + 2*x1^2*x2^2 - x3*x0^3", 3, F)
    assert f.coefficient((4, 0, 0, 0)) == F.p - 3
    assert f.coefficient((3, 0, 0, 1)) == F.p - 1
    assert f.coefficient((0, 2, 2, 0)) == 2
    assert parse_form(form_to_str(f), 3, F) == f


def test_parse_cancellation_keeps_degree():
    z = parse_form("x0 - x0", 1, F)
    assert z.is_zero() and z.degree == 1
    c = parse_form("7", 2, F)
    assert c.degree == 0 and c.terms == {(0, 0, 0): 7}


def test_parse_errors():
    with pytest.raises(NotHomogeneousError):
        parse_form("x0^2 + x1", 1, F)
    with pytest.raises(VariableOutOfRangeError):
        parse_form("x5", 3, F)
    with pytest.raises(FormSyntaxError) as ei:
        parse_form("x0 + + x1", 1, F)
    assert ei.value.position == 5
    with pytest.raises(FormSyntaxError):
        parse_form("", 1, F)
    with pytest.raises(FormSyntaxError):
        parse_form("x0 *", 1, F)
    with pytest.raises(FormSyntaxError):
        parse_form("+x0", 1, F)
    with pytest.raises(FormSyntaxError):
        parse_form("3*4", 1, F)


def test_multiply_commutative_associative():
    rng = random.Random(20240301)
    for _ in range(20):
        n = rng.randrange(1, 4)
        a = random_form(n, rng.randrange(1, 3), F, rng)
        b = random_form(n, rng.randrange(1, 3), F, rng)
        c = random_form(n, 1, F, rng)
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_degree_adds():
    a = parse_form("x0 + x1", 1, F)
    b = parse_form("x0 - x1", 1, F)
    ab = multiply(a, b)
    assert ab.degree == 2
    assert ab == parse_form("x0^2 - x1^2", 1, F)


def test_partials_fermat():
    f = parse_form("x0^4 + x1^4 + x2^4 + x3^4", 3, F)
    parts = partial_derivatives(f)
    assert len(parts) == 4
    for i, fi in enumerate(parts):
        assert fi.terms == {tuple(3 if j == i else 0 for j in range(4)): 4}


def form_sum(f, g):
    """f + g, term by term, for forms of one degree over one field."""
    terms = dict(f.terms)
    for m, c in g.terms.items():
        terms[m] = terms.get(m, 0) + c
    return HomogeneousForm.from_terms(f.n, f.degree, terms, f.field)


def test_euler_identity_random_and_corrupted():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randrange(1, 4)
        d = rng.randrange(1, 5)
        f = random_form(n, d, F, rng)
        if f.is_zero():
            continue
        assert euler_check(f)
        # negative control: tamper with one computed partial and recheck the
        # identity by hand; a silently wrong derivative must be caught
        parts = list(partial_derivatives(f))
        mono = tuple(d - 1 if j == 0 else 0 for j in range(n + 1))
        delta = HomogeneousForm.from_terms(n, d - 1, {mono: 1}, F)
        parts[0] = form_sum(parts[0], delta)  # add x0^(d-1)
        lhs = f.scaled(d)
        rhs = HomogeneousForm(n, d, F, {})
        for i, fi in enumerate(parts):
            rhs = form_sum(rhs, multiply(variable(i, n, F), fi))
        assert lhs != rhs


def test_char_p_exponent_drop():
    # d/dx0 of x0^p is p*x0^(p-1) = 0 mod p
    small = PrimeField(5)
    f = parse_form("x0^5 + x1^5", 1, small)
    parts = partial_derivatives(f)
    assert all(q.is_zero() for q in parts)
    assert euler_check(f)  # 5*F = 0 and the right side is 0 too


def test_random_form_roundtrip_large_prime():
    big = PrimeField((1 << 62) - 57)
    rng = random.Random(1)
    f = random_form(3, 4, big, rng)
    assert parse_form(form_to_str(f), 3, big) == f


def test_from_terms_validates():
    with pytest.raises(NotHomogeneousError):
        HomogeneousForm.from_terms(1, 2, {(1, 0): 1}, F)
    f = HomogeneousForm.from_terms(1, 2, {(2, 0): F.p, (1, 1): 3}, F)
    assert f.terms == {(1, 1): 3}
