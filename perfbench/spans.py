"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the program, every public function and
public method of the varcert modules named in LAYERS, and rebinds each
module-level name that refers to a wrapped function.  That matters because
varcert imports functions by name: `rref` is bound separately in
`exactla`, `jacobian`, `lefschetz` and `cli`, and `wlp_sweep` and
`maxvar_*` are bound again in `cli`; wrapping only the defining module
would miss the nested calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "variation", "lefschetz", "jacobian", "exactla", "polyring")

# a traced invocation's self times must add up to its measured wall time
SELF_SUM_TOLERANCE = 0.05
# rounding slack, in seconds, when comparing span times with each other
CLOCK_SLACK = 1e-9
ROOT = "cli.main"


@dataclass
class Span:
    name: str  # "<layer>.<qualname>", e.g. "jacobian.JacobianRing.echelon"
    layer: str
    invocation: int
    parent: Optional[int]  # index of the enclosing span, None at the root
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rref_attrs(args, result) -> dict:
    mat = args[0]
    return {"rows": mat.nrows, "nnz": sum(len(r) for r in mat.rows),
            "rank": result.rank}


def _degree_attrs(args) -> dict:
    return {"ring": id(args[0]), "degree": args[1]}


# span name -> (hook run before the span opens, hook run after it closes);
# hooks run outside the span, so their cost lands in the parent's self time
HOOKS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "exactla.rref": (None, _rref_attrs),
    "jacobian.JacobianRing.echelon": (_degree_attrs, None),
    "jacobian.JacobianRing.graded_dim": (_degree_attrs, None),
}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args) if before else {}
            span = Span(name, layer, self.invocation, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after:
                attrs.update(after(args, result))
            span.attrs = attrs
            return result

        return traced

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public callables of each module, keyed by layer name."""
        wrapped: dict[int, tuple[object, Callable]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        name = f"{layer}.{obj.__name__}.{mname}"
                        if inspect.isfunction(member):
                            self._set(obj, mname, self._wrap(layer, name, member))
                        elif isinstance(member, (classmethod, staticmethod)):
                            inner = self._wrap(layer, name, member.__func__)
                            self._set(obj, mname, type(member)(inner))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def tree_errors(spans: list[Span], own: list[float], walls: list[float]) -> list[str]:
    """One message per traced invocation whose spans are not one tree rooted
    at cli.main, nested in time without overlapping siblings and with no
    negative self time, or whose self times do not add up to the runner's
    wall time within SELF_SUM_TOLERANCE.  A wrapper that records a wrong
    parent or misses the entry point fails here; the sum alone could not
    fail, since a tree's self times always add up to its root's duration."""
    roots: list[list[str]] = [[] for _ in walls]
    inv_self = [0.0] * len(walls)
    bad: dict[int, str] = {}
    last_end: dict[int, float] = {}  # latest end among the children seen so far
    for i, (s, t) in enumerate(zip(spans, own)):
        inv_self[s.invocation] += t
        if s.parent is None:
            roots[s.invocation].append(s.name)
            continue
        up = spans[s.parent]
        if (up.invocation != s.invocation or s.start < up.start - CLOCK_SLACK
                or s.end > up.end + CLOCK_SLACK):
            bad.setdefault(s.invocation, f"span {i} {s.name} lies outside its parent {up.name}")
        if s.start < last_end.get(s.parent, s.start) - CLOCK_SLACK:
            bad.setdefault(s.invocation, f"span {i} {s.name} overlaps an earlier sibling")
        last_end[s.parent] = s.end
        if t < -CLOCK_SLACK:
            bad.setdefault(s.invocation, f"span {i} {s.name} has self time {t:.3g} s")
    for i, (names, w) in enumerate(zip(roots, walls)):
        if names != [ROOT]:
            bad.setdefault(i, f"root spans {names}, expected [{ROOT!r}]")
        elif abs(inv_self[i] - w) > SELF_SUM_TOLERANCE * w:
            bad.setdefault(i, f"self times sum to {inv_self[i]:.6f} s, wall {w:.6f} s")
    return [f"invocation {i}: {msg}" for i, msg in sorted(bad.items())]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics as name -> (value, unit), each a mean per invocation
    unless it is a ratio or a share of wall time, plus the messages of
    `tree_errors`."""
    invocations = len(walls)
    wall = sum(walls)
    own = self_seconds(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
    errors = tree_errors(spans, own, walls)

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(idx: list[int], key: Optional[str] = None) -> float:
        return sum(spans[i].attrs[key] if key else spans[i].seconds for i in idx)

    rref = named("exactla.rref")
    from_jacobian = [i for i in rref if spans[i].parent is not None
                     and spans[spans[i].parent].layer == "jacobian"]
    distinct = {(spans[i].invocation, spans[spans[i].parent].attrs.get("ring"),
                 spans[spans[i].parent].attrs.get("degree")) for i in from_jacobian}
    ideal = named("jacobian.JacobianRing.ideal_matrix")
    mult = named("lefschetz.mult_map")
    per_inv = 1.0 / invocations
    ms = 1000.0 * per_inv

    def pct(seconds: float) -> float:
        return 100.0 * _ratio(seconds, wall)

    metrics = {
        "exactla.rref.calls": (len(rref) * per_inv, "count"),
        "exactla.rref.ms": (total(rref) * ms, "ms"),
        "exactla.rref.rows_in": (total(rref, "rows") * per_inv, "count"),
        "exactla.rref.nnz_in": (total(rref, "nnz") * per_inv, "count"),
        "exactla.rref.rank_out": (total(rref, "rank") * per_inv, "count"),
        "exactla.rref.useful_row_ratio":
            (_ratio(total(rref, "rank"), total(rref, "rows")), "ratio"),
        "exactla.reduce_block.ms":
            (total(named("exactla.EchelonResult.reduce_block")) * ms, "ms"),
        "exactla.kernel_witness.calls":
            (len(named("exactla.kernel_witness")) * per_inv, "count"),
        "exactla.self_pct": (pct(layer_self["exactla"]), "%"),
        "jacobian.ideal_matrix.calls": (len(ideal) * per_inv, "count"),
        "jacobian.ideal_matrix.ms": (total(ideal) * ms, "ms"),
        "jacobian.self_ms": (layer_self["jacobian"] * ms, "ms"),
        "jacobian.elim_distinct_ratio": (_ratio(len(distinct), len(from_jacobian)), "ratio"),
        "lefschetz.mult_map.calls": (len(mult) * per_inv, "count"),
        "lefschetz.mult_map.self_ms": (sum(own[i] for i in mult) * ms, "ms"),
        "lefschetz.kernel_form.calls":
            (len(named("lefschetz.GradedMap.kernel_form")) * per_inv, "count"),
        "variation.self_pct": (pct(layer_self["variation"]), "%"),
        "polyring.ms": (layer_self["polyring"] * ms, "ms"),
        "cli.self_ms": (layer_self["cli"] * ms, "ms"),
        "trace.wall_ms": (wall * ms, "ms"),
    }
    return metrics, errors


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON line per span: name, start, end, parent, invocation, attrs."""
    with open(path, "w") as fh:
        for s in spans:
            attrs = {k: v for k, v in s.attrs.items() if k != "ring"}
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "invocation": s.invocation,
                                 "attrs": attrs}) + "\n")
