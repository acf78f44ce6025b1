"""Replay the deep-Ext stress set and print its records, steps and seconds.

    PYTHONPATH=src python tests/stress_set.py

The set is a fixed list of one-command scripts whose Ext and grade
decisions reach deeper than the benchmark blocks do: the Veronese cone
(the 2x2 minors of a symmetric 3x3 matrix over FF7), the cone over the
rational normal quartic over QQ, and ZZ[kX, X^2, X^3] at its maximal ideals
(p, a, b, c) and at (6, a, b, c).  An ideal that holds a prime p regular on
the ring is decided over FF_p (Rees' lemma), so the maximal ideals measure
the field engine; (6, a, b, c) holds no prime, and its scripts keep
measuring the strong-basis engine over ZZ.  Each script is parsed afresh,
so none reuses another's work, and each command runs through
`fpdlab.cli.run_command` with the default `CliConfig` and is rendered with
`fpdlab.cli.render_json`.  The records go
to standard output, one JSON line each, so two streams compare with `cmp`
or, ignoring step counts, with `tests/golden_diff.py`; one line per script,
"NAME: STEPS steps, SECONDS s", goes to standard error, then the totals.
The package is imported from the path, not from this file's checkout, so
one copy of the script replays the set against any checkout's `src/`.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

from fpdlab.cli import CliConfig, render_json, run_command
from fpdlab.script import parse

VERONESE = ("ring V = FF7[a,b,c,d,e,f]/(a*d - b^2, a*e - b*c, a*f - c^2, "
            "b*e - c*d, b*f - c*e, d*f - e^2);\nideal m = (a, b, c, d, e, f);\n")
QUARTIC = ("ring Q = QQ[a,b,c,d,e]/(a*c - b^2, a*d - b*c, a*e - c^2, "
           "b*d - c^2, b*e - c*d, c*e - d^2);\nideal n = (a, b, c, d, e);\n")


def integer_curve(k: int, n: int) -> str:
    """ZZ[kX, X^2, X^3] with its ideal m = (n, a, b, c), maximal when n is
    prime."""
    return (f"ring Z = ZZ[a,b,c]/(a^2 - {k * k}*b, a*b - {k}*c, "
            f"a*c - {k}*b^2, b^3 - c^2);\nideal m = ({n}, a, b, c);\n")


SCRIPTS = {
    "veronese-grade": VERONESE + "grade m;\n",
    "veronese-cm": VERONESE + "cm;\n",
    "veronese-ext4": VERONESE + "ext m 4;\n",
    "quartic-ext4": QUARTIC + "ext n 4;\n",
    "zz3-ext3": integer_curve(3, 3) + "ext m 3;\n",
    "zz3-ext5": integer_curve(3, 3) + "ext m 5;\n",
    **{f"zz{k}-grade-p{p}": integer_curve(k, p) + "grade m;\n"
       for k in (2, 3, 4, 5, 6) for p in (2, 3, 5)},
    **{f"zz{k}-grade-n6": integer_curve(k, 6) + "grade m;\n" for k in (2, 3, 4, 5, 6)},
    **{f"zz{k}-ext3-n6": integer_curve(k, 6) + "ext m 3;\n" for k in (5, 6)},
}


def replay(script: str) -> tuple:
    """(the script's records as JSON lines, its summed steps, its seconds)."""
    config = CliConfig()
    start = perf_counter()
    parsed = parse(script)
    records = [run_command(parsed, command, config) for command in parsed.commands()]
    seconds = perf_counter() - start
    text = render_json(records)
    steps = sum(json.loads(line)["budget"]["steps"] for line in text.splitlines())
    return text, steps, seconds


def main() -> int:
    total_steps = total_seconds = 0
    for name, script in SCRIPTS.items():
        text, steps, seconds = replay(script)
        sys.stdout.write(text)
        sys.stdout.flush()
        print(f"{name}: {steps} steps, {seconds:.3f} s", file=sys.stderr)
        total_steps += steps
        total_seconds += seconds
    print(f"total: {total_steps} steps, {total_seconds:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
