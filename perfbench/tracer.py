"""Outside-in tracer: spans around calls into fpdlab's layers, recorded from
the benchmark's own code without editing the package.

`Tracer.installed()` rebinds every function in `PROBES` in each `fpdlab`
module namespace that holds it (including names pulled in with
`from .groebner import ...`), and class attributes on their class; leaving
the block restores the originals.  Each call records one span (name, start,
end, parent span, command id) in flat arrays, so a traced run keeps every
span in memory and writes them out once at the end.

A layer's self time is its spans' duration minus the part of that interval
covered by its child spans.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    layer: str          # span name and metric prefix
    module: str         # defining module
    qualname: str       # "func" or "Class.attr"
    size: Optional[Callable] = None   # (args, result) -> {counter: value}
    moves: str = ""     # the end-to-end metrics this layer should move


def _max(name, value):
    return {f"max:{name}": value}


GROEBNER_MOVES = ("cmds_per_s and latency_p50_ms on ext_zz (integer engine) and "
                  "graded_field (field engine); oracle_sweep flat")
CHECK_MOVES = "latency_p50_ms on oracle_sweep and graded_field (cm)"
MODULES_MOVES = "latency_tail_ms on ext_zz and cmds_per_s on graded_field"
COMPLEXES_MOVES = "cmds_per_s and latency on ext_zz and graded_field"
KOSZUL_MOVES = "graded_field only"
ORACLE_MOVES = "latency_tail_ms and cmds_per_s on oracle_sweep only"
FRONT_MOVES = "latency_p50_ms on oracle_sweep"

PROBES = (
    Probe("groebner.vec_groebner", "fpdlab.groebner", "vec_groebner",
          lambda a, r: _max("out_size", len(r)), GROEBNER_MOVES),
    Probe("groebner.complete", "fpdlab.groebner", "_groebner_field",
          moves=GROEBNER_MOVES),
    Probe("groebner.complete", "fpdlab.groebner", "_groebner_integer",
          moves=GROEBNER_MOVES),
    Probe("groebner.interreduce", "fpdlab.groebner", "_interreduce",
          moves=GROEBNER_MOVES),
    Probe("groebner.normal_form", "fpdlab.groebner", "vec_normal_form",
          lambda a, r: {"zero": 0 if r else 1}, GROEBNER_MOVES),
    Probe("groebner.annihilator", "fpdlab.groebner", "annihilator",
          moves=CHECK_MOVES),
    Probe("groebner.is_unit_ideal", "fpdlab.groebner", "is_unit_ideal",
          moves=CHECK_MOVES),
    Probe("groebner.krull_dimension", "fpdlab.groebner", "krull_dimension",
          moves=CHECK_MOVES),
    Probe("modules.kernel", "fpdlab.modules", "kernel",
          lambda a, r: _max("source_rank", a[0].source_rank), MODULES_MOVES),
    Probe("modules.prune", "fpdlab.modules", "prune_generators",
          lambda a, r: {"candidates": len(a[0].generators),
                        "kept": len(r.generators)}, MODULES_MOVES),
    Probe("modules.subquotient", "fpdlab.modules", "is_zero_subquotient",
          moves=MODULES_MOVES),
    Probe("complexes.ext_is_zero", "fpdlab.complexes", "ExtComputer.ext_is_zero",
          moves=COMPLEXES_MOVES),
    Probe("complexes.resolution", "fpdlab.complexes", "ResolutionCache.differential",
          lambda a, r: _max("rank", r.source_rank), COMPLEXES_MOVES),
    Probe("koszul.grade", "fpdlab.koszul", "koszul_grade", moves=KOSZUL_MOVES),
    Probe("koszul.homology", "fpdlab.koszul", "koszul_homology_is_zero",
          moves=KOSZUL_MOVES),
    Probe("koszul.dual_cokernel", "fpdlab.koszul", "dual_koszul_cokernel",
          moves=KOSZUL_MOVES),
    Probe("invariants.grade", "fpdlab.invariants", "grade",
          moves="cmds_per_s on graded_field (a cross-command grade cache cuts calls)"),
    Probe("finite_rings.build", "fpdlab.finite_rings", "FiniteRing.quotient",
          moves=ORACLE_MOVES),
    Probe("finite_rings.build", "fpdlab.finite_rings", "FiniteRing.integers_mod",
          moves=ORACLE_MOVES),
    Probe("finite_rings.enumerate_ideals", "fpdlab.finite_rings", "enumerate_ideals",
          moves=ORACLE_MOVES),
    Probe("finite_rings.brute", "fpdlab.finite_rings", "brute_is_dq",
          moves=ORACLE_MOVES),
    Probe("finite_rings.brute", "fpdlab.finite_rings", "brute_is_dw",
          moves=ORACLE_MOVES),
    Probe("rings.normal_form", "fpdlab.rings", "RingPresentation.normal_form",
          moves=FRONT_MOVES),
    Probe("script.parse", "fpdlab.script", "parse", moves=FRONT_MOVES),
    Probe("cli.dispatch", "fpdlab.cli", "run_command", moves=FRONT_MOVES),
    Probe("cli.render", "fpdlab.cli", "render_json", moves=FRONT_MOVES),
)

# Per-layer metrics the traced run reports, as (name, unit, source).  Source is
# "calls", "self_ms", a size counter ("max:x" or a summed counter), or a ratio
# "num/den" of two summed counters.  Every ratio's base is reported too.
METRICS = (
    ("groebner.vec_groebner.calls", "count", "calls"),
    ("groebner.vec_groebner.self_ms", "ms", "self_ms"),
    ("groebner.vec_groebner.max_out_size", "count", "max:out_size"),
    ("groebner.complete.calls", "count", "calls"),
    ("groebner.complete.self_ms", "ms", "self_ms"),
    ("groebner.interreduce.calls", "count", "calls"),
    ("groebner.interreduce.self_ms", "ms", "self_ms"),
    ("groebner.normal_form.calls", "count", "calls"),
    ("groebner.normal_form.self_ms", "ms", "self_ms"),
    ("groebner.normal_form.zero_ratio", "ratio", "zero/calls"),
    ("groebner.annihilator.calls", "count", "calls"),
    ("groebner.annihilator.self_ms", "ms", "self_ms"),
    ("groebner.is_unit_ideal.calls", "count", "calls"),
    ("groebner.is_unit_ideal.self_ms", "ms", "self_ms"),
    ("groebner.krull_dimension.calls", "count", "calls"),
    ("groebner.krull_dimension.self_ms", "ms", "self_ms"),
    ("modules.kernel.calls", "count", "calls"),
    ("modules.kernel.self_ms", "ms", "self_ms"),
    ("modules.kernel.max_source_rank", "count", "max:source_rank"),
    ("modules.prune.calls", "count", "calls"),
    ("modules.prune.self_ms", "ms", "self_ms"),
    ("modules.prune.candidates", "count", "candidates"),
    ("modules.prune.kept_ratio", "ratio", "kept/candidates"),
    ("modules.subquotient.calls", "count", "calls"),
    ("modules.subquotient.self_ms", "ms", "self_ms"),
    ("complexes.ext_is_zero.calls", "count", "calls"),
    ("complexes.ext_is_zero.self_ms", "ms", "self_ms"),
    ("complexes.resolution.max_rank", "count", "max:rank"),
    ("koszul.grade.calls", "count", "calls"),
    ("koszul.grade.self_ms", "ms", "self_ms"),
    ("koszul.homology.calls", "count", "calls"),
    ("koszul.homology.self_ms", "ms", "self_ms"),
    ("koszul.dual_cokernel.self_ms", "ms", "self_ms"),
    ("invariants.grade.calls", "count", "calls"),
    ("invariants.grade.self_ms", "ms", "self_ms"),
    ("finite_rings.build.calls", "count", "calls"),
    ("finite_rings.build.self_ms", "ms", "self_ms"),
    ("finite_rings.enumerate_ideals.self_ms", "ms", "self_ms"),
    ("finite_rings.brute.self_ms", "ms", "self_ms"),
    ("rings.normal_form.calls", "count", "calls"),
    ("rings.normal_form.self_ms", "ms", "self_ms"),
    ("script.parse.self_ms", "ms", "self_ms"),
    ("cli.dispatch.self_ms", "ms", "self_ms"),
    ("cli.render.self_ms", "ms", "self_ms"),
)


def self_times(starts, ends, parents) -> list:
    """Self time of every span: its duration minus the length of the union
    of its children's intervals, clipped to its own interval."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for a, b in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Spans and size counters for one traced run."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names = sorted({p.layer for p in probes})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_command = array("l")
        self.counters = {}      # layer -> {counter: value}
        self.absent = {}        # layer -> reason
        self.command_id = -1
        self._stack = []
        self._saved = []        # (owner, attribute, original value)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        name_id = self._name_id[probe.layer]
        size = probe.size
        counters = self.counters.setdefault(probe.layer, {})
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, commands = self.span_parent, self.span_command

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if size is not None:
                for key, value in size(args, result).items():
                    if key.startswith("max:"):
                        counters[key] = max(counters.get(key, value), value)
                    else:
                        counters[key] = counters.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every probe for the duration of the block."""
        try:
            for probe in self.probes:
                self._install(probe)
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _install(self, probe: Probe):
        try:
            home = importlib.import_module(probe.module)
        except ImportError as exc:
            self.absent[probe.layer] = f"{probe.module} cannot be imported: {exc}"
            return
        owner_name, _, attr = probe.qualname.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                self.absent[probe.layer] = f"{probe.module}.{probe.qualname} does not exist"
                return
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, probe))
            else:
                wrapped = self._wrap(raw, probe)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(home, attr, None)
        if original is None:
            self.absent[probe.layer] = f"{probe.module}.{attr} does not exist"
            return
        wrapped = self._wrap(original, probe)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fpdlab" or name.startswith("fpdlab.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapped)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{layer: {"calls": n, "self_ms": t, counters...}} over every span."""
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        totals = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for name_id, s in zip(self.span_name, selfs):
            t = totals[self.names[name_id]]
            t["calls"] += 1
            t["self_ms"] += s * 1000.0
        for layer, counters in self.counters.items():
            totals[layer].update(counters)
        return totals

    def write_spans(self, path):
        """Spans as tab-separated lines: name, start, end, parent, command."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tname\tstart_s\tend_s\tparent\tcommand\n")
            for i, (n, a, b, p, c) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_command)):
                fh.write(f"{i}\t{self.names[n]}\t{a:.9f}\t{b:.9f}\t{p}\t{c}\n")


def metric_values(totals: dict, absent: dict) -> dict:
    """Per-layer metric name -> value (or None with a reason when absent)."""
    out = {}
    for name, unit, source in METRICS:
        layer = name.rsplit(".", 1)[0]
        if layer in absent:
            out[name] = {"value": None, "unit": unit, "absent": absent[layer]}
            continue
        t = totals.get(layer, {})
        if "/" in source:
            num, den = source.split("/")
            base = t.get(den, 0)
            value = t.get(num, 0) / base if base else 0.0
        else:
            value = t.get(source, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def layer_moves() -> dict:
    """Layer -> the end-to-end metrics and workloads a change to it should move."""
    return {p.layer: p.moves for p in PROBES}
