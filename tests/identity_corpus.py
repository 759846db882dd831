"""Identity corpus: a fixed set of varcert invocations and a digest of what
each one printed, so that "output unchanged" is one command.

    PYTHONPATH=src python tests/identity_corpus.py --check
    PYTHONPATH=src python tests/identity_corpus.py --write

--check runs the corpus and lists every invocation whose exit code, stdout
or stderr moved from identity_digests.json, then exits 1 if any did;
--write records the digests of the varcert on the path.  A change that
alters output re-records them in the same commit and names each moved
invocation.

Every invocation runs in-process through varcert.cli.main, from a temporary
directory holding the form files and matrix dumps under relative names, so
no digest depends on where the checkout lives.  Per invocation the digest
file holds the argv, the exit code and the sha256 of stdout and of stderr.
JSON stdout is re-dumped with indent=2, keys in their order, without
timings_ms, the only subtree that differs between identical runs.  The
corpus: hilbert, wlp, maxvar hypersurface -e 1/2/3 and maxvar double-cover,
in JSON and text, on seeded forms, CI's quartic, a singular quartic and a
cone at eight primes from 7 to 2^62-57, and on Fermat forms, a Fermat
quartic at 5 with its NoEvidence witness among them; rank-oracle dumps;
usage errors; and size-guard refusals, so exit codes 0-5 all occur.
The forms are generated here, independent of varcert's own monomial order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from varcert import cli

DIGESTS = Path(__file__).with_name("identity_digests.json")
P61, P62 = (1 << 61) - 1, (1 << 62) - 57
PRIMES = (7, 1048573, 536870909, 536870923, 759250133, 3037000507, 4294967291, P62)
SEEDED_SHAPES = ((2, 5), (2, 6), (3, 4), (3, 5), (4, 3), (4, 4))
FORMS = {
    "quartic.txt": "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3",  # CI's quartic
    "singular.txt": "x0^2*x1^2 + x1^4 + x2^4 + x3^4",
    "cone.txt": "x0^4 + x1^4 + x2^4 + 0*x3^4",
    "x9.txt": "x0^3 + x9^3",
    "linear.txt": "x0 + x1 + x2",
}
FERMAT_SHAPES = ((3, 4), (2, 5), (4, 3), (3, 5), (2, 6), (4, 4))
COMMANDS = (["hilbert"], ["wlp"], *(["maxvar", "hypersurface", "-e", e] for e in "123"),
            ["maxvar", "double-cover"])
FORMATS = ("json", "text")


def seeded_form(n: int, d: int) -> str:
    """A degree-d form in x0..xn with integer coefficients in [-9, 9] on
    every monomial, drawn from a seed of (n, d) until xn occurs (the CLI
    infers n from the largest index), in varcert's input grammar."""
    rng = random.Random(f"identity|{n}|{d}")
    while True:
        terms = []
        for vars_ in itertools.combinations_with_replacement(range(n + 1), d):
            c = rng.randint(-9, 9)
            if c:
                body = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                                for i, k in ((i, vars_.count(i)) for i in sorted(set(vars_))))
                terms.append((c, body, n in vars_))
        if any(has_n for _, _, has_n in terms):
            break
    return " ".join(f"{'-' if c < 0 else '+' if j else ''}{abs(c)}*{body}"
                    for j, (c, body, _) in enumerate(terms))


def rank_dump(p: int) -> str:
    """A 60 x 50 dump of rank at most 40, a seeded 60 x 40 times 40 x 50
    product mod p, in rank-oracle's format."""
    rng = random.Random(p)
    u = [[rng.randrange(p) for _ in range(40)] for _ in range(60)]
    v = [[rng.randrange(p) for _ in range(50)] for _ in range(40)]
    lines = [f"60 50 {p}"]
    for i, r in enumerate(u):
        for j, col in enumerate(zip(*v)):
            x = sum(a * b for a, b in zip(r, col)) % p
            if x:
                lines.append(f"{i} {j} {x}")
    return "\n".join(lines) + "\n"


def files() -> dict[str, str]:
    """The file name and text of every form file and matrix dump."""
    out = dict(FORMS)
    out.update({f"n{n}d{d}.txt": seeded_form(n, d) for n, d in SEEDED_SHAPES})
    out.update({f"rank-{p}.txt": rank_dump(p) for p in (1048573, P61, P62)})
    out["bad-dump.txt"] = "2 2 101\n0 0 5\n0 5 1\n"
    out["composite-dump.txt"] = "2 2 100\n0 0 5\n"
    return out


def corpus() -> list[list[str]]:
    """Every invocation, as an argv list."""
    out = []
    forms = ["quartic.txt", "singular.txt", "cone.txt"] + [f"n{n}d{d}.txt"
                                                          for n, d in SEEDED_SHAPES]
    for form, p, cmd, fmt in itertools.product(forms, PRIMES, COMMANDS, FORMATS):
        out.append(cmd + [form, "--prime", str(p), "--format", fmt])
    for (n, d), p, cmd in itertools.product(FERMAT_SHAPES, (1048573, P62), COMMANDS):
        out.append(cmd + ["--fermat", str(n), str(d), "--prime", str(p), "--format", "json"])
    out += [["wlp", "--fermat", "4", "4", "--prime", "5", "--seed", "2"],
            ["wlp", "n3d5.txt", "--prime", "1048573", "--seed", "2", "--trials", "1"],
            ["maxvar", "hypersurface", "--fermat", "3", "4", "-e", "5", "--prime", "1048573"]]
    # NoEvidence: a rank deficiency at 5 prints a kernel witness and a
    # failure bound, the second through the e=1 criterion
    for cmd, fmt in itertools.product((["hypersurface"], ["double-cover", "-e", "2"]), FORMATS):
        out.append(["maxvar", cmd[0], "--fermat", "3", "4", *cmd[1:], "--prime", "5",
                    "--format", fmt])
    for p, fmt in itertools.product((1048573, P61, P62), FORMATS):
        out.append(["rank-oracle", f"rank-{p}.txt", "--format", fmt])
    # usage errors (exit 1) and size-guard refusals (exit 5)
    out += [["hilbert"], ["frobnicate"], ["maxvar"], ["hilbert", "missing.txt"],
            ["hilbert", "quartic.txt", "--prime", "1048575"],
            ["hilbert", "quartic.txt", "--prime", "3"],
            ["hilbert", "quartic.txt", "--trials", "0"],
            ["wlp", "x9.txt"], ["hilbert", "linear.txt"], ["hilbert", "--fermat", "0", "3"],
            ["rank-oracle", "bad-dump.txt"], ["rank-oracle", "composite-dump.txt"],
            ["rank-oracle", "missing.txt"],
            ["hilbert", "quartic.txt", "--fermat", "2", "3", "--prime", "101"],
            ["wlp", "quartic.txt", "--fermat", "2", "3", "--prime", "101"],
            ["maxvar", "hypersurface", "quartic.txt", "--fermat", "3", "4", "--prime", "101"],
            ["hilbert", "--fermat", "6", "6", "--prime", "1048573"],
            ["hilbert", "--fermat", "8", "30", "--prime", "1048573"]]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv: list[str]) -> dict:
    """Run one invocation in the current directory and digest its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    if stdout and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        report = json.loads(stdout)
        report.pop("timings_ms")
        stdout = json.dumps(report, indent=2)
    return {"argv": " ".join(argv), "exit": code, "stdout": _sha(stdout),
            "stderr": _sha(err.getvalue())}


def run(invocations: list[list[str]]) -> list[dict]:
    """The digests of the invocations, run in a temporary directory that
    holds the corpus files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files().items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            return [digest(argv) for argv in invocations]
        finally:
            os.chdir(cwd)


def recorded() -> dict[str, dict]:
    """The recorded digests, by argv."""
    return {d["argv"]: d for d in json.loads(DIGESTS.read_text())}


def moved(digests: list[dict], recorded: dict[str, dict]) -> list[str]:
    """One line for each digest that differs from its recorded one."""
    out = []
    for d in digests:
        old = recorded.get(d["argv"])
        if old is None:
            out.append(f"{d['argv']}: not recorded")
        elif old != d:
            out.append(f"{d['argv']}: " + ", ".join(
                f"{k} moved" if k != "exit" else f"exit {old[k]} -> {d[k]}"
                for k in ("exit", "stdout", "stderr") if old[k] != d[k]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the digests")
    mode.add_argument("--check", action="store_true", help="compare with the recorded digests")
    args = parser.parse_args(argv)
    digests = run(corpus())
    if args.write:
        DIGESTS.write_text("[\n" + ",\n".join(json.dumps(d) for d in digests) + "\n]\n")
        print(f"recorded {len(digests)} digests in {DIGESTS.name}")
        return 0
    old = recorded()
    lines = moved(digests, old)
    lines += [f"{a}: recorded but not in the corpus"
              for a in sorted(set(old) - {d["argv"] for d in digests})]
    for line in lines:
        print(line)
    print(f"{len(digests)} invocations, {len(lines)} moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
