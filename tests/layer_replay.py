"""Layer replay: time rref's in-batch elimination, exactla._gauss_jordan,
alone, on the batches rref hands it, at the primes of each update rule.

    python tests/layer_replay.py [--rounds N] [CHECKOUT ...]

The batches are recorded from one in-process varcert run per benchmark
shape, on the identity corpus's seeded form of that shape: `maxvar
hypersurface -e 1` on the (4,4) form at 2^62-57 and `wlp` on the (3,5)
form at 1048573.  Each batch is then replayed, reduced mod q, at every
prime q below, and the table gives the milliseconds one pass over a
shape's batches takes at each prime (the median of N rounds, each batch
copied before its clock starts) and the pivots found there.

With no CHECKOUT it times this checkout's src/.  Given source checkouts
(this one, its parent, ...) it times the _gauss_jordan of each on the
same batches, one pass each per prime and round, in alternating order, so
that a machine whose speed drifts slows them alike.  It only times:
correctness stays with the tests and the identity corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from identity_corpus import seeded_form  # noqa: E402
from varcert import cli, exactla  # noqa: E402

P62 = (1 << 62) - 57
PRIMES = {"1048573": 1048573, "536870923": 536870923, "759250133": 759250133,
          "2^31-1": (1 << 31) - 1, "3037000507": 3037000507, "4294967291": 4294967291,
          "2^62-57": P62}
SHAPES = {"maxvar n4d4 @2^62-57": ((4, 4), ["maxvar", "hypersurface", "-e", "1"], P62),
          "wlp n3d5 @1048573": ((3, 5), ["wlp"], 1048573)}


def record(n: int, d: int, command: list[str], p: int) -> list[tuple]:
    """The (batch, budget) pairs rref passes to _gauss_jordan while varcert
    runs command on the seeded (n, d) form at p."""
    batches = []
    real = exactla._gauss_jordan

    def recording(zp, y, budget):
        batches.append((y.copy(order="F"), budget))
        return real(zp, y, budget)

    with tempfile.TemporaryDirectory() as tmp:
        form = Path(tmp, "form.txt")
        form.write_text(seeded_form(n, d))
        exactla._gauss_jordan = recording
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command + [str(form), "--prime", str(p), "--format", "json"])
        finally:
            exactla._gauss_jordan = real
    if code != 0:
        raise SystemExit(f"{' '.join(command)} on the ({n},{d}) form exited {code}")
    return batches


def exactla_of(checkout: str, i: int):
    """The exactla module of the varcert under checkout/src, imported as a
    package of its own."""
    root = Path(checkout, "src", "varcert")
    spec = importlib.util.spec_from_file_location(
        f"varcert_{i}", root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{spec.name}.exactla")


def replay(module, batches: list[tuple], q: int) -> tuple[float, int]:
    """Milliseconds for one pass of module._gauss_jordan over the batches
    reduced mod q, and the pivots it finds."""
    zp, ms, pivots = module._Zp64(q), 0.0, 0
    for y, budget in batches:
        yq = y % zp.p  # a fresh column-major copy, overwritten by the call
        t = time.perf_counter()
        lead, _ = module._gauss_jordan(zp, yq, budget)
        ms += (time.perf_counter() - t) * 1e3
        pivots += len(lead)
    return ms, pivots


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15, help="replays per prime (median)")
    parser.add_argument("checkouts", nargs="*", help="source checkouts to time side by side")
    args = parser.parse_args(argv)
    checkouts = args.checkouts or [str(HERE.parent)]
    modules = [exactla_of(c, i) for i, c in enumerate(checkouts)]
    width = max(len(c) for c in checkouts + ["pivots"])
    for label, ((n, d), command, p) in SHAPES.items():
        batches = record(n, d, command, p)
        runs = {(m, q): [] for m in range(len(modules)) for q in PRIMES}
        for r in range(args.rounds):
            for q, prime in PRIMES.items():
                for m in range(len(modules))[::1 if r % 2 else -1]:
                    runs[m, q].append(replay(modules[m], batches, prime))
        print(f"{label}, {len(batches)} batches")
        print(f"  {'ms':<{width}} " + " ".join(f"{q:>11}" for q in PRIMES))
        for m, c in enumerate(checkouts):
            print(f"  {c:<{width}} " + " ".join(
                f"{statistics.median(ms for ms, _ in runs[m, q]):>11.2f}" for q in PRIMES))
        print(f"  {'pivots':<{width}} " + " ".join(f"{runs[0, q][0][1]:>11}" for q in PRIMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
