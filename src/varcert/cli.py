"""Command-line front end.

One command per process: parse the input form (or build a Fermat form),
validate the run configuration, drive the library, and emit a text or JSON
report.  JSON output is schema-stable with top-level keys {command, input,
config, verdict, dims, rank, failure_bound?, witness?, detail?, timings_ms};
identical invocations produce identical bytes apart from timings_ms.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Optional

from .exactla import MatrixFormatError, SizeGuardExceeded, dense_rank_oracle, load_matrix, rref
from .jacobian import CharacteristicError, HilbertMismatch, JacobianRing, ci_hilbert_coefficients
from .lefschetz import wlp_sweep
from .polyring import (
    MAX_VARIABLES,
    HomogeneousForm,
    PolyError,
    PrimeField,
    fermat_form,
    form_to_str,
    parse_form,
)
from .variation import (
    KIND_DOUBLE_COVER,
    KIND_HYPERSURFACE,
    MAXIMAL_VARIATION_CERTIFIED,
    NO_EVIDENCE,
    PRECONDITION_VIOLATED,
    SMOOTHNESS_NOT_CERTIFIED,
    TRIVIALLY_CERTIFIED,
    GeometryInput,
    maxvar,
)

# 2^62 - 57, the largest prime below 2^62; fixed so published results carry
# their modulus implicitly
DEFAULT_PRIME = 4611686018427387847

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CERTIFIED = 2
EXIT_PRECONDITION = 3
EXIT_NOT_SMOOTH = 4
EXIT_RESOURCE = 5
EXIT_INTERNAL = 6


class CliError(Exception):
    """Input or configuration problem; message goes to stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a CliError, so it exits 1 like any
    other usage error instead of argparse's 2, which means not certified."""

    def error(self, message: str):
        raise CliError(message)


def infer_variable_count(text: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"x(\d+)", text)]
    if not indices:
        raise CliError("no variables found in the input form")
    if max(indices) >= MAX_VARIABLES:
        raise CliError(f"the form names x{max(indices)}; forms may use "
                       f"x0..x{MAX_VARIABLES - 1} only")
    return max(indices)


def load_input_form(args, field: PrimeField) -> tuple[HomogeneousForm, dict]:
    if args.fermat is not None:
        if args.form_file is not None:
            raise CliError("give either a form file or --fermat N D, not both")
        n, d = args.fermat
        if not (1 <= n <= 8 and d >= 2):
            raise CliError(f"--fermat needs 1 <= n <= 8 and d >= 2, got {n} {d}")
        form = fermat_form(n, d, field)
        source = f"fermat({n},{d})"
    else:
        if args.form_file is None:
            raise CliError("provide a form file or --fermat N D")
        path = Path(args.form_file)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        form = parse_form(text, infer_variable_count(text), field)
        source = str(path)
    return form, {"source": source, "form": form_to_str(form),
                  "n": form.n, "d": form.degree}


class Envelope:
    """The report every command emits: {command, input, config, <the
    command's fields>, timings_ms}, printed as JSON or as the command's
    text lines.  A form command loads its form through `load_form`, which
    also fills `input`; rank-oracle fills `input` itself.  The timings hold
    the wall time since the envelope opened, once a ring is open the ring's
    stages, and whatever else the command puts in `timings`."""

    def __init__(self, args):
        self.t0 = time.perf_counter()
        self.args = args
        self.input: dict = {}
        self.ring: Optional[JacobianRing] = None
        self.timings: dict = {}

    def load_form(self) -> HomogeneousForm:
        try:
            field = PrimeField(self.args.prime)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        self.form, self.input = load_input_form(self.args, field)
        if self.args.prime <= self.form.degree:
            raise CliError(f"prime {self.args.prime} must exceed the form degree "
                           f"{self.form.degree}")
        return self.form

    def open_ring(self) -> JacobianRing:
        if self.form.degree < 2:
            raise CliError(f"a Jacobian ring needs degree >= 2, the form has "
                           f"degree {self.form.degree}")
        self.ring = JacobianRing(self.form)
        return self.ring

    def finish(self, code: int, fields: dict, text_lines: list[str]) -> int:
        args = self.args
        timings = {"total": round((time.perf_counter() - self.t0) * 1000, 3)}
        if self.ring is not None:
            timings["stages"] = self.ring.stages()
        timings.update(self.timings)
        report = {"command": args.command, "input": self.input,
                  "config": {"prime": args.prime, "seed": args.seed, "trials": args.trials},
                  **fields, "timings_ms": timings}
        print(json.dumps(report, indent=2) if args.fmt == "json" else "\n".join(text_lines))
        return code


def cmd_hilbert(run: Envelope) -> int:
    run.load_form()
    ring = run.open_ring()
    dims = list(ring.hilbert_function())
    certified = ring.certify_smooth()
    verdict = "Certified" if certified else "NotCertified"
    expected = ci_hilbert_coefficients(ring.n, ring.degree)
    lines = [
        f"hilbert: n={ring.n} d={ring.degree} prime={run.args.prime}",
        f"dims R_0..R_{ring.socle + 1}: {dims}",
        f"CI series (socle {ring.socle}): {expected}",
        f"smoothness: {verdict}",
    ]
    return run.finish(EXIT_OK if certified else EXIT_NOT_CERTIFIED,
                      {"verdict": verdict, "dims": dims, "rank": None}, lines)


def cmd_wlp(run: Envelope) -> int:
    args = run.args
    run.load_form()
    ring = run.open_ring()
    if not ring.certify_smooth():
        return run.finish(EXIT_NOT_CERTIFIED,
                          {"verdict": "SmoothnessNotCertified", "dims": None, "rank": None},
                          [f"wlp: smoothness not certified at prime {args.prime}"])
    sweep = wlp_sweep(ring, trials=args.trials, rng_seed=args.seed)
    run.timings["descended"] = sweep.descended
    run.timings["mirrored"] = sweep.mirrored
    dims = list(ring.hilbert_function())
    detail = {str(p): {"outcome": v.outcome, "required": v.required_rank,
                       "best": v.best_rank, "trials": v.trials_used}
              for p, v in sorted(sweep.verdicts.items())}
    verdict = "WLPCertified" if sweep.holds else "WLPNotCertified"
    lines = [f"wlp: n={ring.n} d={ring.degree} prime={args.prime} seed={args.seed}",
             f"dims: {dims}"]
    for p, v in sorted(sweep.verdicts.items()):
        lines.append(f"  degree {p}: {v.outcome} rank {v.best_rank}/{v.required_rank}")
    lines.append(f"weak Lefschetz: {verdict}")
    return run.finish(EXIT_OK if sweep.holds else EXIT_NOT_CERTIFIED,
                      {"verdict": verdict, "dims": dims, "rank": None, "detail": detail},
                      lines)


_MAXVAR_EXIT = {
    MAXIMAL_VARIATION_CERTIFIED: EXIT_OK,
    TRIVIALLY_CERTIFIED: EXIT_OK,
    NO_EVIDENCE: EXIT_NOT_CERTIFIED,
    PRECONDITION_VIOLATED: EXIT_PRECONDITION,
    SMOOTHNESS_NOT_CERTIFIED: EXIT_NOT_SMOOTH,
}


def cmd_maxvar(run: Envelope) -> int:
    args = run.args
    geom = GeometryInput(args.kind, run.load_form(), args.e)
    run.input.update(kind=args.kind, e=args.e)
    # the gate comes first: it is what rejects forms no ring can be built for
    ring = run.open_ring() if geom.gate_violation() is None else None
    rep = maxvar(geom, trials=args.trials, seed=args.seed, ring=ring)
    prov = rep.provenance
    fields = {
        "verdict": rep.verdict,
        "dims": [prov.get("dim_source"), prov.get("dim_target")],
        "rank": prov.get("rank"),
        "detail": {"criterion": rep.criterion, "reason": rep.detail,
                   "note": rep.note},
    }
    if rep.failure_bound is not None:
        fields["failure_bound"] = str(rep.failure_bound)
    if rep.witness is not None:
        fields["witness"] = form_to_str(rep.witness)
    lines = [f"maxvar {args.kind}: n={run.form.n} d={run.form.degree} e={args.e} "
             f"prime={args.prime} seed={args.seed}",
             f"criterion: {rep.criterion}",
             f"verdict: {rep.verdict}",
             f"  {rep.detail}"]
    if rep.note:
        lines.append(f"  note: {rep.note}")
    if rep.failure_bound is not None:
        lines.append(f"  failure bound: {rep.failure_bound}")
    if rep.witness is not None:
        lines.append(f"  kernel witness G: {form_to_str(rep.witness)}")
    return run.finish(_MAXVAR_EXIT[rep.verdict], fields, lines)


def cmd_rank_oracle(run: Envelope) -> int:
    path = Path(run.args.matrix_file)
    try:
        mat = load_matrix(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except MatrixFormatError as exc:
        raise CliError(f"bad matrix dump: {exc}") from None
    except ValueError as exc:
        raise CliError(f"matrix {exc}") from None
    sparse_rank = rref(mat).rank
    oracle_rank = dense_rank_oracle(mat)
    agree = sparse_rank == oracle_rank
    verdict = "RankAgreement" if agree else "RankMismatch"
    run.input = {"source": str(path), "nrows": mat.nrows, "ncols": mat.ncols,
                 "modulus": mat.p}
    lines = [f"rank-oracle: {mat.nrows}x{mat.ncols} mod {mat.p}",
             f"echelon rank = {sparse_rank}, oracle rank = {oracle_rank}",
             verdict]
    return run.finish(EXIT_OK if agree else EXIT_NOT_CERTIFIED,
                      {"verdict": verdict, "dims": [mat.nrows, mat.ncols],
                       "rank": sparse_rank, "detail": {"oracle_rank": oracle_rank}},
                      lines)


def _add_common(sub: argparse.ArgumentParser, with_form: bool = True) -> None:
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                     help="field modulus (prime, < 2^62)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=3)
    sub.add_argument("--format", dest="fmt", choices=["text", "json"],
                     default="text")
    if with_form:
        sub.add_argument("form_file", nargs="?",
                         help="file containing one form in the input grammar")
        sub.add_argument("--fermat", nargs=2, type=int, metavar=("N", "D"),
                         help="use the Fermat form of degree D in N+1 variables")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varcert",
        description="certify maximal-variation and weak-Lefschetz rank "
                    "conditions on Jacobian rings by exact linear algebra "
                    "over a prime field")
    subs = parser.add_subparsers(dest="command", required=True)
    hil = subs.add_parser("hilbert", help="graded dimensions and smoothness certificate")
    _add_common(hil)
    hil.set_defaults(func=cmd_hilbert)
    wlp = subs.add_parser("wlp", help="weak Lefschetz sweep over all degrees")
    _add_common(wlp)
    wlp.set_defaults(func=cmd_wlp)
    mv = subs.add_parser("maxvar", help="maximal-variation criterion")
    # a parser per kind, so the form file may follow the options
    kinds = mv.add_subparsers(dest="kind", required=True)
    for kind in (KIND_HYPERSURFACE, KIND_DOUBLE_COVER):
        k = kinds.add_parser(kind)
        k.add_argument("-e", type=int, default=1, help="line-bundle twist (default 1)")
        _add_common(k)
        k.set_defaults(func=cmd_maxvar)
    ro = subs.add_parser("rank-oracle",
                         help="cross-check echelon rank against the dense oracle")
    ro.add_argument("matrix_file", help="matrix dump (nrows ncols modulus header)")
    _add_common(ro, with_form=False)
    ro.set_defaults(func=cmd_rank_oracle)
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built on first use


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
        if args.trials < 1:
            raise CliError(f"--trials must be >= 1, got {args.trials}")
        # by name: the parser outlives a rebinding of cmd_* (a tracer's wrapper)
        return globals()[args.func.__name__](Envelope(args))
    except (CliError, CharacteristicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PolyError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (HilbertMismatch, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
