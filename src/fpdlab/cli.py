"""Command-line front end: run a session script and emit text or JSON reports.

One record is produced per command.  The default JSON stream is fully
deterministic (wall-clock timings only appear under --timings, so identical
scripts and configuration give byte-identical machine output).

Exit codes: 0 success, 1 command error, 2 parse error, 3 resource exhaustion,
4 internal error (a failed cross-check or invariant: a library defect).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import (DEFAULT_MAX_STEPS, Budget, InternalError, ParseError,
                     ResourceBudgetExceeded, StructuralError)
from .complexes import ext_vanishing_profile
from .finite_rings import brute_is_dq, brute_is_dw, enumerate_ideals
from .groebner import krull_dimension
from .invariants import (dq_dw_local, fpd_bound, fpd_criterion_check, grade,
                         is_cohen_macaulay_graded, is_gv, is_semiregular)
from .koszul import dual_koszul_cokernel, koszul_grade
from .rings import GREVLEX, LEX, MonomialOrder
from .script import Command, SessionScript, parse

EXIT_OK = 0
EXIT_COMMAND_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass
class CliConfig:
    order: MonomialOrder = GREVLEX
    budget_steps: int = DEFAULT_MAX_STEPS
    deadline: Optional[float] = None
    json_output: bool = False
    timings: bool = False


ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def _env_default(name: str, fallback):
    """The raw FPDLAB_<name> string, which argparse parses with the
    argument's `type` (and rejects as a usage error) when no flag is given."""
    return os.environ.get(f"FPDLAB_{name}", fallback)


def _order_name(name: str) -> str:
    # argparse checks `choices` on flags only, not on a default from the env
    if name not in ORDERS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(ORDERS)})")
    return name


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fpdlab",
        description="Finitistic-dimension laboratory: grade, Ext profiles, "
                    "Koszul complexes, DQ/DW and Cohen-Macaulay checks for "
                    "finitely presented rings.")
    ap.add_argument("script", nargs="?", default="-",
                    help="script file, or - for stdin")
    ap.add_argument("--order", type=_order_name, choices=list(ORDERS),
                    default=_env_default("ORDER", "grevlex"),
                    help="monomial order for declared rings")
    ap.add_argument("--budget", type=int,
                    default=_env_default("BUDGET", DEFAULT_MAX_STEPS),
                    help="step budget per command")
    ap.add_argument("--deadline", type=float,
                    default=_env_default("DEADLINE", None),
                    help="wall-clock seconds per command")
    ap.add_argument("--json", action="store_true",
                    default=str(_env_default("JSON", "")).lower() in ("1", "true"),
                    help="machine-readable output, one JSON object per command")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte determinism)")
    return ap


def config_from_args(args) -> CliConfig:
    return CliConfig(order=ORDERS[args.order], budget_steps=args.budget,
                     deadline=args.deadline, json_output=args.json,
                     timings=args.timings)


# ---------------------------------------------------------------------------
# Command execution

def _ideal_inputs(script: SessionScript, cmd: Command) -> dict:
    inputs = {"ring": str(script.rings[cmd.ring_name]), "ring_name": cmd.ring_name}
    if cmd.ideal_names:
        inputs["ideals"] = {
            name: [str(g) for g in script.ideals[name].generators]
            for name in cmd.ideal_names}
    if cmd.degree is not None:
        inputs["degree"] = cmd.degree
    return inputs


def run_command(script: SessionScript, cmd: Command, config: CliConfig) -> dict:
    budget = Budget(config.budget_steps, config.deadline)
    record = {"command": cmd.kind, "status": "ok", "certificates": {}}
    if cmd.kind == "oracle":
        record["inputs"] = {"check": cmd.oracle_check, "ring": str(cmd.oracle_ring)}
    else:
        record["inputs"] = _ideal_inputs(script, cmd)
    started = time.monotonic()
    try:
        record["result"] = _dispatch(script, cmd, budget, record)
    except ResourceBudgetExceeded as exc:
        record["status"] = "resource"
        record["error"] = str(exc)
    except InternalError as exc:
        record["status"] = "internal"
        record["error"] = str(exc)
    except (StructuralError, ParseError) as exc:
        record["status"] = "error"
        record["error"] = str(exc)
    record["budget"] = {"steps": budget.steps, "max_steps": budget.max_steps}
    if config.timings:
        record["time_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    return record


def _dispatch(script: SessionScript, cmd: Command, budget: Budget,
              record: dict) -> dict:
    kind = cmd.kind
    if kind == "oracle":
        return _run_oracle(script, cmd, budget)
    ring = script.rings[cmd.ring_name]
    ideal_of = lambda i=0: script.ideals[cmd.ideal_names[i]]

    if kind == "grade":
        rep = grade(ideal_of(), budget=budget)
        return {"value": str(rep.value),
                "ext_profile": list(rep.ext_profile),
                "koszul_cross_check": (str(rep.koszul_cross_check)
                                       if rep.koszul_cross_check is not None else None),
                "notes": list(rep.notes)}
    if kind == "ext":
        profile = ext_vanishing_profile(ideal_of(), cmd.degree, budget)
        return {"vanishes_through": list(profile)}
    if kind == "semiregular":
        return {"semiregular": is_semiregular(ideal_of(), budget)}
    if kind == "gv":
        return {"gv": is_gv(ideal_of(), budget)}
    if kind == "criterion":
        res = fpd_criterion_check(ideal_of(), cmd.degree, budget)
        if res.unit_cofactors is not None:
            record["certificates"]["unit_cofactors"] = [str(c) for c in res.unit_cofactors]
        return {"verdict": res.verdict,
                "profile": list(res.profile),
                "first_nonvanishing": res.first_nonvanishing}
    if kind == "fpd":
        ideals = [script.ideals[n] for n in cmd.ideal_names]
        rep = fpd_bound(ring, ideals, budget)
        # every grade is determined, so an fpd record's notes are empty
        return {"bound": rep.bound, "conclusion": rep.conclusion,
                "grades": {name: str(g.value) for name, g in
                           zip(cmd.ideal_names, rep.grades)},
                "notes": []}
    if kind == "cm":
        rep = is_cohen_macaulay_graded(ring, budget)
        return {"cohen_macaulay": rep.is_cm, "depth": rep.depth,
                "dimension": rep.dimension,
                "finitistic_identity": rep.finitistic_identity}
    if kind == "dqdw":
        rep = dq_dw_local(ring, budget)
        return {"dq": rep.is_dq, "dw": rep.is_dw, "depth": rep.depth,
                "gv_witness": (", ".join(str(g) for g in rep.gv_witness.generators)
                               if rep.gv_witness is not None else None)}
    if kind == "koszul":
        ideal = ideal_of()
        value = koszul_grade(ideal, budget=budget)  # reused once computed
        m = len(ideal.generators)
        return {"ranks": [comb(m, i) for i in range(m + 1)], "koszul_grade": str(value)}
    if kind == "smodule":
        res = dual_koszul_cokernel(ideal_of(), cmd.degree, budget)
        return {"index": res.index,
                "presentation_shape": [res.presentation.target_rank,
                                       res.presentation.source_rank],
                "profile": list(res.profile),
                "exactness_verified": res.exactness_verified,
                "projective_dimension_bound": res.projective_dimension_bound}
    if kind == "dim":
        return {"krull_dimension": krull_dimension(ring, budget)}
    raise StructuralError(f"unknown command {kind!r}")


def _run_oracle(script: SessionScript, cmd: Command, budget: Budget) -> dict:
    ring = script.finite_ring(cmd.oracle_ring, budget)
    check = cmd.oracle_check
    if check in ("dq", "dw"):
        res = (brute_is_dq if check == "dq" else brute_is_dw)(ring, budget=budget)
        return {"ring": str(ring), check: res.holds,
                "witness": sorted(ring.labels[i] for i in res.witness)
                if res.witness is not None else None}
    ideals = enumerate_ideals(ring, budget=budget)
    return {"ring": str(ring), "ideal_count": len(ideals),
            "ideals": [sorted(ring.labels[i] for i in I) for I in ideals]}


def execute_script(script: SessionScript, config: CliConfig) -> tuple:
    """Run every command; returns (records, exit_code)."""
    records = [run_command(script, c, config) for c in script.commands()]
    code = EXIT_OK
    if any(r["status"] == "internal" for r in records):
        code = EXIT_INTERNAL
    elif any(r["status"] == "resource" for r in records):
        code = EXIT_RESOURCE
    elif any(r["status"] == "error" for r in records):
        code = EXIT_COMMAND_ERROR
    return records, code


# ---------------------------------------------------------------------------
# Rendering

def render_json(records) -> str:
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                     for r in records) + ("\n" if records else "")


def render_text(records) -> str:
    lines = []
    for r in records:
        lines.append(f"== {r['command']} ==")
        for key, value in sorted(r.get("inputs", {}).items()):
            lines.append(f"  {key:<18} {value}")
        if r["status"] == "ok":
            for key, value in sorted(r.get("result", {}).items()):
                lines.append(f"  {key:<18} {value}")
        else:
            lines.append(f"  {r['status']:<18} {r.get('error', '')}")
        if r.get("certificates"):
            for key, value in sorted(r["certificates"].items()):
                lines.append(f"  {key:<18} {value}")
        lines.append(f"  {'steps':<18} {r['budget']['steps']}")
        if "time_ms" in r:
            lines.append(f"  {'time_ms':<18} {r['time_ms']}")
    return "\n".join(lines) + ("\n" if lines else "")


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    config = config_from_args(args)
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_COMMAND_ERROR
    try:
        script = parse(text, order=config.order)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    records, code = execute_script(script, config)
    out = render_json(records) if config.json_output else render_text(records)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
