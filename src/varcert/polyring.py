"""Exact homogeneous polynomial arithmetic over a prime field.

Forms are stored sparsely as {exponent tuple: coefficient} with coefficients
in [1, p).  The degree-p monomials are one table of int64 keys,
monomial_keys(n, p), in descending graded lex with x0 > x1 > ... > xn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

MAX_VARIABLES = 9  # n <= 8
MAX_MODULUS_BITS = 62

Monomial = tuple[int, ...]


class PolyError(Exception):
    pass


class FormSyntaxError(PolyError):
    """Parse failure; carries the character offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneousError(PolyError):
    pass


class VariableOutOfRangeError(PolyError):
    pass


class DimensionMismatchError(PolyError):
    pass


class DegreeZeroError(PolyError):
    pass


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all m < 3.3e24."""
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p for a verified prime p < 2^62."""

    p: int

    def __post_init__(self):
        if self.p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus {self.p} exceeds {MAX_MODULUS_BITS} bits")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


class MonomialKeys:
    """The degree-p monomials in x0..xn as int64 keys, in the column order
    that fixes matrix columns and quotient-basis coordinates everywhere
    downstream: descending graded lex, x0 largest first.

    A key is the mixed-radix number whose digits are the exponents, base
    p+1, x0 most significant.  No exponent exceeds p, so digits never carry:
    key(a*b) = key(a) + key(b) whenever deg a + deg b <= p.  On one degree
    the key order is the lex order, so the keys descend along the columns
    and a sorted search finds them.  They are built one variable at a time:
    the monomials of degree s in x_j..x_n are x_j^(s-t) times those of
    degree t in x_(j+1)..x_n, for t = 0..s."""

    def __init__(self, n: int, p: int):
        base = p + 1
        if n < 0 or p < 0 or n + 1 > MAX_VARIABLES:
            raise ValueError(f"need 0 <= n < {MAX_VARIABLES} and p >= 0, got {n} {p}")
        if base ** (n + 1) >= 1 << 63:
            raise ValueError(f"degree-{p} keys in {n + 1} variables overflow int64")
        self.base, self.weights = base, base ** np.arange(n, -1, -1, dtype=np.int64)
        # keys in x_j..x_n of degree <= p (= p at j = 0), by degree, each descending
        keys = degs = np.zeros(1, dtype=np.int64)  # 1, in no variables
        for j in range(n, -1, -1):
            tops = np.arange(base) if j else np.array([p])
            ends = np.searchsorted(degs, tops, side="right")  # keys of degree <= s, per s
            at = np.arange(ends.sum()) - np.repeat(np.cumsum(ends) - ends, ends)
            top = np.repeat(tops, ends)
            keys, degs = keys[at] + self.weights[j] * (top - degs[at]), top
        self._ascending = keys[::-1]

    def of(self, mons) -> np.ndarray:
        """Keys of exponent tuples or exponent rows, as int64."""
        return np.asarray(mons, dtype=np.int64).reshape(-1, self.weights.size) @ self.weights

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """Column positions of degree-p keys."""
        return self._ascending.size - 1 - np.searchsorted(self._ascending, keys)

    def exponents(self, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """The exponent rows of the columns cols (all by default)."""
        keys = self._ascending[::-1]
        return (keys if cols is None else keys[cols])[:, None] // self.weights % self.base

    @cached_property
    def degrevlex(self) -> np.ndarray:
        """The position of each column in descending degrevlex order
        (x0 > ... > xn): the ascending order of the reversed exponents
        (e_n, ..., e_0), which the key with x_n most significant sorts.
        Read-only."""
        rank = np.empty(self._ascending.size, dtype=np.int64)
        rank[np.argsort(self.exponents() @ self.weights[::-1])] = np.arange(rank.size)
        rank.setflags(write=False)
        return rank


@lru_cache(maxsize=None)
def monomial_keys(n: int, p: int) -> MonomialKeys:
    return MonomialKeys(n, p)


@lru_cache(maxsize=None)
def enumerate_monomials(n: int, p: int) -> tuple[Monomial, ...]:
    """All degree-p monomials in x0..xn as exponent tuples, in the column
    order of monomial_keys(n, p)."""
    return tuple(map(tuple, monomial_keys(n, p).exponents().tolist()))


def monomial_count(n: int, p: int) -> int:
    return math.comb(n + p, n)


def monomial_str(m: Monomial) -> str:
    factors = []
    for i, e in enumerate(m):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors) if factors else "1"


@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    """A homogeneous polynomial; zero coefficients are never stored.

    Treated as immutable: nothing in this package mutates `terms` after
    construction, so forms are safe to share across threads.
    """

    n: int
    degree: int
    field: PrimeField
    terms: dict[Monomial, int] = dc_field(default_factory=dict)

    @classmethod
    def from_terms(cls, n: int, degree: int, terms: dict[Monomial, int],
                   field: PrimeField) -> HomogeneousForm:
        if n + 1 > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported")
        clean: dict[Monomial, int] = {}
        for m, c in terms.items():
            if len(m) != n + 1 or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {m} for n={n}")
            if sum(m) != degree:
                raise NotHomogeneousError(
                    f"monomial {monomial_str(m)} has degree {sum(m)}, expected {degree}")
            c %= field.p
            if c:
                clean[m] = c
        return cls(n, degree, field, clean)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.n == other.n and self.degree == other.degree
                and self.field.p == other.field.p and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def scaled(self, c: int) -> HomogeneousForm:
        p = self.field.p
        c %= p
        if c == 0:
            return HomogeneousForm(self.n, self.degree, self.field, {})
        return HomogeneousForm(self.n, self.degree, self.field,
                               {m: v * c % p for m, v in self.terms.items()})

    def __str__(self) -> str:
        return form_to_str(self)

    def __repr__(self) -> str:
        return f"HomogeneousForm({form_to_str(self)!r}, n={self.n}, p={self.field.p})"


def multiply(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    if f.n != g.n or f.field.p != g.field.p:
        raise DimensionMismatchError(
            f"cannot multiply forms over different rings (n={f.n}/{g.n}, p={f.field.p}/{g.field.p})")
    p = f.field.p
    out: dict[Monomial, int] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            v = (out.get(m, 0) + ca * cb) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return HomogeneousForm(f.n, f.degree + g.degree, f.field, out)


def variable(i: int, n: int, field: PrimeField) -> HomogeneousForm:
    m = tuple(1 if j == i else 0 for j in range(n + 1))
    return HomogeneousForm(n, 1, field, {m: 1})


def partial_derivatives(f: HomogeneousForm) -> tuple[HomogeneousForm, ...]:
    """(dF/dx0, ..., dF/dxn), each of degree d-1, coefficients mod p."""
    if f.degree < 1:
        raise DegreeZeroError("cannot differentiate a constant form")
    p = f.field.p
    out = []
    for i in range(f.n + 1):
        terms: dict[Monomial, int] = {}
        for m, c in f.terms.items():
            e = m[i]
            if e == 0:
                continue
            v = c * e % p
            if v == 0:
                continue  # characteristic divides the exponent
            dm = m[:i] + (e - 1,) + m[i + 1:]
            terms[dm] = v
        out.append(HomogeneousForm(f.n, f.degree - 1, f.field, terms))
    return tuple(out)


def euler_check(f: HomogeneousForm) -> bool:
    """Arithmetic self-test: d*F must equal sum_i x_i * dF/dx_i."""
    if f.degree < 1:
        return True
    p = f.field.p
    rhs: dict[Monomial, int] = {}
    for i, fi in enumerate(partial_derivatives(f)):
        for m, c in fi.terms.items():
            xm = m[:i] + (m[i] + 1,) + m[i + 1:]
            rhs[xm] = (rhs.get(xm, 0) + c) % p
    return f.scaled(f.degree).terms == {m: c for m, c in rhs.items() if c}


def fermat_form(n: int, d: int, field: PrimeField) -> HomogeneousForm:
    """x0^d + ... + xn^d."""
    return HomogeneousForm.from_terms(
        n, d, {tuple(d if j == i else 0 for j in range(n + 1)): 1 for i in range(n + 1)}, field)


def random_form(n: int, degree: int, field: PrimeField, rng) -> HomogeneousForm:
    """Uniform coefficients on every degree-`degree` monomial."""
    terms = {}
    for m in enumerate_monomials(n, degree):
        c = rng.randrange(field.p)
        if c:
            terms[m] = c
    return HomogeneousForm(n, degree, field, terms)


# --- text format ---------------------------------------------------------
#
# form := term ( ('+'|'-') term )*
# term := [integer] ('*'? var)*
# var  := 'x' index ('^' exponent)?
#
# Whitespace is insignificant; a leading '-' on the first term is accepted.

def parse_form(text: str, n: int, field: PrimeField) -> HomogeneousForm:
    if n + 1 > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} variables supported")
    p = field.p
    terms: dict[Monomial, int] = {}
    degrees: dict[int, int] = {}  # degree -> first position, for error reporting
    i = 0
    size = len(text)

    def skip_ws(i: int) -> int:
        while i < size and text[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int, int]:
        j = i
        while j < size and text[j].isdigit():
            j += 1
        if j == i:
            raise FormSyntaxError("expected an integer", i)
        return int(text[i:j]), j

    i = skip_ws(i)
    if i >= size:
        raise FormSyntaxError("empty input", i)
    first = True
    while True:
        sign = 1
        i = skip_ws(i)
        if i < size and text[i] in "+-":
            if first and text[i] == "+":
                raise FormSyntaxError("unexpected '+'", i)
            if text[i] == "-":
                sign = -1
            if not first or text[i] == "-":
                i += 1
                i = skip_ws(i)
        term_pos = i
        coeff = 1
        saw_factor = False
        if i < size and text[i].isdigit():
            value, i = read_int(i)
            coeff = value % p
            saw_factor = True
        exps = [0] * (n + 1)
        while True:
            i = skip_ws(i)
            j = i
            if j < size and text[j] == "*":
                j = skip_ws(j + 1)
                if j >= size or text[j] != "x":
                    raise FormSyntaxError("expected a variable after '*'", j)
            if j < size and text[j] == "x":
                i = j + 1
                idx_pos = i
                idx, i = read_int(i)
                if idx > n:
                    raise VariableOutOfRangeError(
                        f"variable x{idx} out of range for n={n} (position {idx_pos})")
                e = 1
                if i < size and text[i] == "^":
                    i += 1
                    e, i = read_int(i)
                exps[idx] += e
                saw_factor = True
            else:
                break
        if not saw_factor:
            raise FormSyntaxError("expected a term", term_pos)
        mono = tuple(exps)
        deg = sum(exps)
        degrees.setdefault(deg, term_pos)
        v = (terms.get(mono, 0) + sign * coeff) % p
        if v:
            terms[mono] = v
        else:
            terms.pop(mono, None)
        first = False
        i = skip_ws(i)
        if i >= size:
            break
        if text[i] not in "+-":
            raise FormSyntaxError(f"unexpected character {text[i]!r}", i)

    # constants only count toward the degree when they survive as terms
    nonzero_degrees = sorted({sum(m) for m in terms}) or sorted(degrees)
    if len(set(degrees)) > 1:
        degs = sorted(degrees)
        raise NotHomogeneousError(
            f"mixed term degrees {degs} (first degree-{degs[1]} term at position {degrees[degs[1]]})")
    degree = nonzero_degrees[-1]
    form = HomogeneousForm(n, degree, field, terms)
    if degree >= 1 and degree % p != 0 and not euler_check(form):
        raise AssertionError("post-parse Euler identity check failed; arithmetic bug")
    return form


def form_to_str(f: HomogeneousForm) -> str:
    """Canonical rendering, parseable by parse_form; coefficients use the
    balanced lift so witnesses print compactly."""
    if not f.terms:
        return "0"
    p = f.field.p
    half = p // 2
    parts: list[str] = []
    for m, c in f.sorted_terms():
        c_bal = c if c <= half else c - p
        neg = c_bal < 0
        mag = -c_bal if neg else c_bal
        mono = monomial_str(m)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
