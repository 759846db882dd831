"""Seeded inputs, workload definitions and output checks for the varcert
benchmark.

The program under test sees only form files and argv.  Every fact a check
compares against is computed here, independently of varcert: the
complete-intersection Hilbert function is expanded from the product
(1 + t + ... + t^(d-2))^(n+1), and monomials are enumerated by this
module's own recursion.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# coefficients are drawn from [-9, 9], the range of the test corpus
COEFF_BOUND = 9
P62 = 2 ** 62 - 57  # varcert's default prime: the sparse pure-Python tier
P20 = 1048573  # below 2^23: the blocked float64/BLAS tier

MAXVAR_OK = "MaximalVariationCertified"
WLP_OK = "WLPCertified"
CERTIFIED_MAX_RANK = "CertifiedMaxRank"


class CheckFailed(Exception):
    """An invocation's output disagrees with an independent fact."""


def ci_hilbert(n: int, d: int) -> list[int]:
    """dim R_p for p = 0..(n+1)(d-2)+1 of the Jacobian ring of a smooth
    degree-d form in n+1 variables; the last entry, one past the socle, is 0."""
    series = [1]
    for _ in range(n + 1):
        nxt = [0] * (len(series) + d - 2)
        for i, c in enumerate(series):
            for j in range(d - 1):
                nxt[i + j] += c
        series = nxt
    return series + [0]


def monomials(n: int, d: int):
    """Exponent tuples of the degree-d monomials in x0..xn."""
    if n == 0:
        yield (d,)
        return
    for a in range(d, -1, -1):
        for rest in monomials(n - 1, d - a):
            yield (a,) + rest


def form_text(n: int, d: int, rng: random.Random) -> str:
    """A degree-d form in x0..xn with integer coefficients in [-9, 9] on
    every monomial, written in varcert's input grammar.  Redraws until xn
    occurs, because the CLI infers n from the highest variable index."""
    while True:
        terms = []
        for m in monomials(n, d):
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c:
                body = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                                for i, e in enumerate(m) if e)
                terms.append((c, m, body))
        if any(m[n] for _, m, _ in terms):
            break
    parts = []
    for c, _, body in terms:
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(c)}*{body}")
    return " ".join(parts) + "\n"


class FormPool:
    """Form files drawn from (tag, seed, index); a file is written on first use."""

    def __init__(self, directory: Path, tag: str, seed: int, n: int, d: int):
        self.directory = directory
        self.tag = tag
        self.seed = seed
        self.n = n
        self.d = d

    def path(self, k: int) -> Path:
        path = self.directory / f"{self.tag}-{k:05d}.txt"
        if not path.exists():
            digest = hashlib.sha256(
                f"perfbench|{self.tag}|{self.seed}|{k}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            path.write_text(form_text(self.n, self.d, rng))
        return path


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show."""

    argv: tuple[str, ...]
    n: int
    d: int
    e: Optional[int]  # None for wlp


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "maxvar" or "wlp"
    n: int
    d: int
    prime: int
    e: Optional[int]  # the maxvar twist; None for wlp
    forms: int  # forms per seed, reused round-robin
    trace_calls: int  # invocations in the traced pass

    def call(self, pool: FormPool, k: int) -> Call:
        """Invocation k: form k mod `forms`."""
        base = [str(pool.path(k % self.forms)), "--prime", str(self.prime),
                "--format", "json"]
        if self.command == "wlp":
            return Call(("wlp", *base), pool.n, pool.d, None)
        return Call(("maxvar", "hypersurface", *base, "-e", str(self.e)),
                    pool.n, pool.d, self.e)

    def warmup(self) -> "Workload":
        """The same command, prime and twist on the smaller shape (n, d-1)."""
        return Workload(self.name + "-warmup", "", self.command, self.n,
                        self.d - 1, self.prime, self.e, 1, 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        "maxvar-p62-n4d4",
        "Hardest ROADMAP case: the 2475x1365 socle+1 rank at 2^62-57 runs on "
        "the sparse tier, so signature filtering and limb-split BLAS show here "
        "and mult_map barely does.",
        "maxvar", 4, 4, P62, 1, forms=2, trace_calls=2),
    Workload(
        "wlp-p20-n3d5",
        "Eliminates every degree 0..socle+1 on the float/BLAS tier and builds "
        "12 multiplication maps, so incremental Matrix-F5, echelon/dim cache "
        "merging and mult_map show here.",
        "wlp", 3, 5, P20, None, forms=3, trace_calls=3),
)}


def output_digest(report: dict) -> str:
    """sha256 of the JSON report without its nondeterministic timings_ms."""
    body = {k: v for k, v in report.items() if k != "timings_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check(call: Call, report: dict) -> None:
    """Raise CheckFailed unless the JSON report of a run that exited with 0
    matches the facts for call."""
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise CheckFailed(what)

    h = ci_hilbert(call.n, call.d)
    d, e = call.d, call.e
    if e is None:
        socle = (call.n + 1) * (d - 2)
        need(report["verdict"] == WLP_OK, f"verdict {report['verdict']}")
        need(report["dims"] == h, f"dims {report['dims']} != {h}")
        detail = report["detail"]
        need(sorted(detail, key=int) == [str(p) for p in range(1, socle + 1)],
             f"detail degrees {sorted(detail, key=int)}")
        for p in range(1, socle + 1):
            v, required = detail[str(p)], min(h[p - 1], h[p])
            need(v["outcome"] == CERTIFIED_MAX_RANK and v["required"] == required
                 and v["best"] == required, f"degree {p}: {v}")
    else:
        source = h[d - e]
        need(report["verdict"] == MAXVAR_OK, f"verdict {report['verdict']}")
        need(report["dims"] == [source, h[d]], f"dims {report['dims']} != {[source, h[d]]}")
        need(report["rank"] == report["dims"][0], f"rank {report['rank']} != dims[0]")
