"""Seeded session-script corpora for the three workloads.

A corpus is an endless sequence of blocks; block `b` of seed `s` depends only
on (workload, s, b), so the same seed gives byte-identical scripts.  Every
block of a workload holds the same multiset of command shapes, and a run
executes whole blocks, so runs on different seeds measure the same mix.  The
seed draws what does not change the amount of work (the order of rings and
commands, which of two equal-cost commands runs, unit multiples of the finite
rings' ideal generators) and leaves the rest fixed, because run-to-run spread
across seeds has to stay well inside the benchmark's bounds.

Each script comes with one expectation per command; `checks.check_record`
compares them with the CLI's JSON records.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

WORKLOADS = ("ext_zz", "graded_field", "oracle_sweep")


@dataclass(frozen=True)
class Script:
    name: str
    text: str
    expected: tuple     # one dict per command, in source order


def block(workload: str, seed: int, index: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _BUILDERS[workload](rng, f"b{index:03d}")


# ---------------------------------------------------------------------------
# ext_zz: ZZ[kX, X^2, X^3] = ZZ[a,b,c]/(a^2 - k^2 b, ab - kc, ac - kb^2, b^3 - c^2)

EXT_ZZ_KS = (2, 3, 4, 5, 6)
EXT_ZZ_PRIMES = (2, 3, 5)
# The ideals m_p asked about by `grade`/`fpd`, per k: every p | k (grade 1),
# and for k = 2 also p = 3 (grade 2, where the resolution's ranks grow).  The
# other grade-2 ideals take 3-12 s each over ZZ, which would leave room for
# only one block per run.
EXT_ZZ_GRADE_PRIMES = {2: (2, 3), 3: (3,), 4: (2,), 5: (5,), 6: (2, 3)}


def _ext_zz_block(rng: random.Random, tag: str) -> list:
    """Five scripts, one per k in seeded order.  Each asks `criterion 1` about
    every maximal ideal (p, a, b, c) and `grade` or `fpd` (equal cost; the
    seed picks) about the ideals of EXT_ZZ_GRADE_PRIMES, each command on its
    own ideal declaration so that commands share only the ring's relation
    basis."""
    ks = list(EXT_ZZ_KS)
    rng.shuffle(ks)
    scripts = []
    for pos, k in enumerate(ks):
        lines = [f"# ext_zz {tag} script {pos}: k = {k}",
                 f"ring R = ZZ[a,b,c]/(a^2 - {k * k}*b, a*b - {k}*c, "
                 f"a*c - {k}*b^2, b^3 - c^2);"]
        commands = []
        for p in EXT_ZZ_PRIMES:
            g = 1 if k % p == 0 else 2
            lines.append(f"ideal C{p} = ({p}, a, b, c);")
            commands.append((f"criterion C{p} 1;",
                             {"command": "criterion", "degree": 1, "grade": g}))
            if p not in EXT_ZZ_GRADE_PRIMES[k]:
                continue
            lines.append(f"ideal G{p} = ({p}, a, b, c);")
            if rng.random() < 0.5:
                commands.append((f"grade G{p};",
                                 {"command": "grade", "grade": g, "koszul": False}))
            else:
                commands.append((f"fpd G{p};",
                                 {"command": "fpd", "grades": {f"G{p}": g}}))
        rng.shuffle(commands)
        lines += [c for c, _ in commands]
        scripts.append(Script(f"{tag}-s{pos}", "\n".join(lines) + "\n",
                              tuple(e for _, e in commands)))
    return scripts


# ---------------------------------------------------------------------------
# graded_field: graded-local rings over QQ and FF_p, irrelevant ideal m

GRADED_COMMANDS = ("grade m", "cm", "dqdw", "koszul m", "smodule m 1", "ext m 3", "gv m")
# (label, field, variables, relations, depth, Krull dimension, Gorenstein).  The
# field is fixed per ring: the twisted cubic's cost moves with it, and that
# ring dominates the block.
GRADED_RINGS = (
    ("twisted_cubic", "QQ", ("a", "b", "c", "d"), "a*c - b^2, b*d - c^2, a*d - b*c",
     2, 2, False),
    ("segre_quadric", "FF7", ("x", "y", "z", "w"), "x*w - y*z", 3, 3, True),
    ("line_and_plane", "FF101", ("x", "y", "z"), "x*y, y*z", 1, 2, False),
    ("monomial_ci", "FF32003", ("x", "y", "z", "w"), "x*y, z*w", 2, 2, True),
    ("monomial_hypersurface", "QQ", ("x", "y", "z"), "x*y*z", 2, 2, True),
) + tuple((f"polynomial_{n}", field, tuple(f"x{i}" for i in range(1, n + 1)), "",
           n, n, True)
          for n, field in zip(range(3, 7), ("FF7", "FF101", "FF32003", "QQ")))


def _graded_expectations(variables: tuple, depth: int, dim: int,
                          gorenstein: bool) -> tuple:
    # Ext^i(R/m, R) != 0 exactly for depth <= i <= injdim R, which is dim R
    # for a Gorenstein ring and infinite otherwise (Roberts).
    top = dim if gorenstein else float("inf")
    vanishes = [not depth <= i <= top for i in range(4)]
    n = len(variables)
    exact = vanishes[0] and vanishes[1]
    return (
        {"command": "grade", "grade": depth, "koszul": True},
        {"command": "cm", "depth": depth, "dimension": dim},
        {"command": "dqdw", "depth": depth, "witness": ", ".join(variables)},
        {"command": "koszul", "ranks": [comb(n, i) for i in range(n + 1)],
         "koszul_grade": str(depth)},
        {"command": "smodule", "index": 2, "shape": [comb(n, 2), n],
         "profile": vanishes[:2], "exact": exact},
        {"command": "ext", "vanishes_through": vanishes},
        {"command": "gv", "gv": depth >= 2},
    )


def _graded_block(rng: random.Random, tag: str) -> list:
    """Every ring once, in seeded order; each script runs all seven commands
    on the irrelevant ideal."""
    rings = list(GRADED_RINGS)
    rng.shuffle(rings)
    scripts = []
    for pos, (label, field, variables, relations, depth, dim,
              gorenstein) in enumerate(rings):
        decl = f"ring R = {field}[{','.join(variables)}]"
        if relations:
            decl += f"/({relations})"
        lines = [f"# graded_field {tag} script {pos}: {label} over {field}",
                 decl + ";", f"ideal m = ({', '.join(variables)});"]
        lines += [c + ";" for c in GRADED_COMMANDS]
        scripts.append(Script(f"{tag}-s{pos}", "\n".join(lines) + "\n",
                              _graded_expectations(variables, depth, dim, gorenstein)))
    return scripts


# ---------------------------------------------------------------------------
# oracle_sweep: finite rings FF_p[x]/(f), ZZ[x]/(n, f) and ZZ/n, 16-256 elements

# (n, little-endian coefficients of monic f, or None for ZZ/n)
ORACLE_RINGS = (
    (2, (1, 1, 0, 0, 1)),            # FF2[x]/(x^4 + x + 1), 16
    (2, (0, 0, 0, 1, 0, 0, 0, 0, 1)),  # FF2[x]/(x^8 + x^3), 256
    (3, (0, 0, 1, 1)),               # FF3[x]/(x^3 + x^2), 27
    (3, (1, 0, 1, 0, 1)),            # FF3[x]/(x^4 + x^2 + 1), 81
    (5, (1, 1, 1)),                  # FF5[x]/(x^2 + x + 1), 25
    (5, (0, 0, 1, 1)),               # FF5[x]/(x^3 + x^2), 125
    (7, (0, 0, 1)),                  # FF7[x]/(x^2), 49
    (13, (1, 0, 1)),                 # FF13[x]/(x^2 + 1), 169
    (4, (1, 1, 1)),                  # ZZ[x]/(4, x^2 + x + 1), 16
    (4, (0, 0, 0, 1, 1)),            # ZZ[x]/(4, x^4 + x^3), 256
    (6, (0, 0, 1, 1)),               # ZZ[x]/(6, x^3 + x^2), 216
    (8, (0, 0, 1)),                  # ZZ[x]/(8, x^2), 64
    (9, (1, 1, 1)),                  # ZZ[x]/(9, x^2 + x + 1), 81
    (12, (0, 1, 1)),                 # ZZ[x]/(12, x^2 + x), 144
    (36, None),                      # ZZ/36
    (100, None),                     # ZZ/100
)
_PRIMES = {2, 3, 5, 7, 13}


def _ideal_pool() -> dict:
    """Two ideals per ring, one and two generators of full degree, drawn once
    from a fixed seed.  Random generators on the ZZ rings differ up to 4x in
    cost, so a fresh draw per run seed would move the latency median by more
    than the benchmark's bound; the run seed re-scales each generator by a
    unit instead, which keeps the ideal and its cost."""
    rng = random.Random("oracle_sweep ideal pool")
    pool = {}
    for n, coeffs in ORACLE_RINGS:
        degree = len(coeffs) - 1 if coeffs else 1
        ideals = []
        for count in (1, 2):
            gens = []
            for _ in range(count):
                g = [rng.randrange(n) for _ in range(degree)]
                g[-1] = 1 + rng.randrange(n - 1)
                gens.append(g)
            ideals.append(gens)
        pool[(n, coeffs)] = ideals
    return pool


ORACLE_IDEALS = _ideal_pool()


def format_poly(coeffs) -> str:
    """Little-endian integer coefficients as script text in the variable x."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        body = str(c) if not mono else (mono if c == 1 else f"{c}*{mono}")
        parts.append(body)
    return " + ".join(parts) if parts else "0"


def _oracle_block(rng: random.Random, tag: str) -> list:
    """Every finite ring once, in seeded order.  Per ring: `semiregular`,
    `gv` and `criterion 1` on its pool ideals, each generator multiplied by a
    seed-drawn unit, through the Groebner route, then `oracle dq`,
    `oracle dw` and `oracle ideals` on the tables."""
    rings = list(ORACLE_RINGS)
    rng.shuffle(rings)
    scripts = []
    for pos, (n, coeffs) in enumerate(rings):
        if coeffs is None:
            decl = f"ring R = ZZ[x]/({n}, x);"
            oracle = f"ZZ/{n}"
        else:
            f = format_poly(coeffs)
            if n in _PRIMES:
                decl = f"ring R = FF{n}[x]/({f});"
                oracle = f"FF{n}[x]/({f})"
            else:
                decl = f"ring R = ZZ[x]/({n}, {f});"
                oracle = f"ZZ/{n}[x]/({f})"
        lines = [f"# oracle_sweep {tag} script {pos}: {oracle}", decl]
        commands = []
        ring = {"n": n, "f": list(coeffs) if coeffs else None}
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        for j, pool_gens in enumerate(ORACLE_IDEALS[(n, coeffs)]):
            gens = []
            for g in pool_gens:
                u = rng.choice(units)
                gens.append([u * c % n for c in g])
            name = f"I{j}"
            lines.append(f"ideal {name} = ({', '.join(format_poly(g) for g in gens)});")
            ideal = dict(ring, gens=gens)
            commands += [
                (f"semiregular {name};", {"command": "semiregular", **ideal}),
                (f"gv {name};", {"command": "gv", **ideal}),
                (f"criterion {name} 1;", {"command": "criterion", "degree": 1, **ideal}),
            ]
        commands += [(f"oracle {check} {oracle};",
                      {"command": "oracle", "check": check, **ring})
                     for check in ("dq", "dw", "ideals")]
        lines += [c for c, _ in commands]
        scripts.append(Script(f"{tag}-s{pos}", "\n".join(lines) + "\n",
                              tuple(e for _, e in commands)))
    return scripts


_BUILDERS = {"ext_zz": _ext_zz_block, "graded_field": _graded_block,
             "oracle_sweep": _oracle_block}
