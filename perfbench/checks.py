"""Correctness gate: compare each JSON record's status and result with the
expectation the corpus attached to its command.

Step counts and times are never compared.  Unit-cofactor certificates are
re-multiplied in the finite ring's tables instead of byte-compared, because a
valid algorithm change may find other cofactors.  The oracle_sweep reference
answers come from `fpdlab.finite_rings` (brute-force Hom and GV on explicit
tables), computed outside the timed loop.
"""
from __future__ import annotations

import re


def check_record(record: dict, expected: dict, oracle: "OracleFacts") -> list:
    """Every mismatch between a record and its expectation (empty when right)."""
    if record.get("command") != expected["command"]:
        return [f"command {record.get('command')!r}, expected {expected['command']!r}"]
    if record.get("status") != "ok":
        return [f"status {record.get('status')!r}: {record.get('error', '')}"]
    result = record.get("result", {})
    if "n" in expected:
        want, certified = oracle.expected_result(expected)
        if "ideals" in result:
            result = dict(result, ideals=sorted(sorted(I) for I in result["ideals"]))
        problems = _diff(result, want)
        cofactors = record.get("certificates", {}).get("unit_cofactors")
        if certified and not oracle.certifies_unit(expected, cofactors):
            problems.append(f"unit cofactors {cofactors} do not multiply back to 1")
        elif not certified and cofactors is not None:
            problems.append("unit cofactors attached to a proper ideal")
        return problems
    return _diff(result, _closed_form(expected))


def _diff(result: dict, want: dict) -> list:
    return [f"{key} = {result.get(key)!r}, expected {value!r}"
            for key, value in want.items() if result.get(key) != value]


def _profile(grade: int, degree: int) -> list:
    return [i < grade for i in range(degree + 1)]


def _closed_form(e: dict) -> dict:
    """The result fields fixed by an ext_zz or graded_field expectation."""
    kind = e["command"]
    if kind == "grade":
        g = e["grade"]
        return {"value": str(g), "ext_profile": _profile(g, g),
                "koszul_cross_check": str(g) if e["koszul"] else None, "notes": []}
    if kind == "criterion":
        g, n = e["grade"], e["degree"]
        passed = g <= n
        return {"verdict": "PASS" if passed else "COUNTEREXAMPLE",
                "profile": _profile(g, n),
                "first_nonvanishing": g if passed else None}
    if kind == "fpd":
        grades = e["grades"]
        return {"bound": max(grades.values()), "conclusion": "LOWER_BOUND",
                "grades": {k: str(v) for k, v in grades.items()}, "notes": []}
    if kind == "cm":
        d, dim = e["depth"], e["dimension"]
        return {"cohen_macaulay": d == dim, "depth": d, "dimension": dim,
                "finitistic_identity": (f"fPD(R) = FPD(R) = K.dim(R) = {dim}"
                                        if d == dim else None)}
    if kind == "dqdw":
        d = e["depth"]
        return {"dq": d == 0, "dw": d <= 1, "depth": d,
                "gv_witness": e["witness"] if d >= 2 else None}
    if kind == "koszul":
        return {"ranks": e["ranks"], "koszul_grade": e["koszul_grade"]}
    if kind == "smodule":
        return {"index": e["index"], "presentation_shape": e["shape"],
                "profile": e["profile"], "exactness_verified": e["exact"],
                "projective_dimension_bound": e["index"] if e["exact"] else None}
    if kind == "ext":
        return {"vanishes_through": e["vanishes_through"]}
    if kind == "gv":
        return {"gv": e["gv"]}
    raise ValueError(f"no closed form for {kind!r}")


# ---------------------------------------------------------------------------
# oracle_sweep references

_TERM = re.compile(r"^([+-]?)(\d*)\*?(x(?:\^(\d+))?)?$")


def parse_univariate(text: str) -> list:
    """Little-endian integer coefficients of a polynomial printed in x."""
    coeffs = {}
    for term in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        m = _TERM.match(term)
        if m is None or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot read term {term!r} of {text!r}")
        sign, digits, var, exp = m.groups()
        c = int(digits) if digits else 1
        e = 0 if var is None else int(exp or 1)
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    top = max(coeffs, default=0)
    return [coeffs.get(e, 0) for e in range(top + 1)]


class OracleFacts:
    """Brute-force answers on explicit tables, one table per ring (memoized)."""

    def __init__(self):
        self._rings = {}
        self._ideals = {}
        self._all_ideals = {}

    def ring(self, n: int, f):
        key = (n, tuple(f) if f else None)
        if key not in self._rings:
            from fpdlab.finite_rings import FiniteRing
            self._rings[key] = (FiniteRing.quotient(n, list(f)) if f
                                else FiniteRing.integers_mod(n))
        return self._rings[key]

    def element(self, n: int, f, coeffs) -> int:
        """Table index of a polynomial: reduce mod (n, f), read base-n digits."""
        c = [v % n for v in coeffs]
        f = list(f) if f else [0, 1]   # ZZ/n is ZZ[x]/(n, x)
        d = len(f) - 1
        for top in range(len(c) - 1, d - 1, -1):
            lead = c[top]
            if lead:
                for i in range(d + 1):
                    c[top - d + i] = (c[top - d + i] - lead * f[i]) % n
        c = (c + [0] * d)[:d]
        return sum(v * n ** i for i, v in enumerate(c))

    def ideal(self, e: dict) -> frozenset:
        key = (e["n"], tuple(e["f"]) if e["f"] else None,
               tuple(tuple(g) for g in e["gens"]))
        if key not in self._ideals:
            from fpdlab.finite_rings import ideal_closure
            R = self.ring(e["n"], e["f"])
            seeds = [self.element(e["n"], e["f"], g) for g in e["gens"]]
            self._ideals[key] = ideal_closure(R, seeds)
        return self._ideals[key]

    def expected_result(self, e: dict):
        """(result fields, whether a unit certificate must be attached)."""
        from fpdlab.finite_rings import (brute_hom_vanishes, brute_is_gv,
                                         enumerate_ideals)
        R = self.ring(e["n"], e["f"])
        kind = e["command"]
        if kind == "oracle":
            # Every finite commutative ring is DQ (each maximal ideal is an
            # associated prime) and DW (it is zero-dimensional).
            want = {"ring": str(R)}
            if e["check"] in ("dq", "dw"):
                want.update({e["check"]: True, "witness": None})
            else:
                if R not in self._all_ideals:
                    self._all_ideals[R] = sorted(sorted(R.labels[i] for i in I)
                                                 for I in enumerate_ideals(R))
                ideals = self._all_ideals[R]
                want.update({"ideal_count": len(ideals), "ideals": ideals})
            return want, False
        ideal = self.ideal(e)
        unit = R.one in ideal
        if kind == "semiregular":
            return {"semiregular": brute_hom_vanishes(R, ideal)}, False
        if kind == "gv":
            return {"gv": brute_is_gv(R, ideal)}, False
        # criterion 1.  Ext^1(-, R) = 0 on these rings: ZZ/n[x]/(f) with f
        # monic is a zero-dimensional Gorenstein ring, hence self-injective.
        hom_zero = brute_hom_vanishes(R, ideal)
        profile = [hom_zero, True]
        if unit:
            return {"verdict": "PASS", "profile": profile,
                    "first_nonvanishing": None}, True
        return {"verdict": "PASS", "profile": profile,
                "first_nonvanishing": 0 if not hom_zero else 1}, False

    def certifies_unit(self, e: dict, cofactors) -> bool:
        """sum c_i * g_i == 1 in the ring's tables."""
        if cofactors is None or len(cofactors) != len(e["gens"]):
            return False
        n, f = e["n"], e["f"]
        R = self.ring(n, f)
        total = R.zero
        for c, g in zip(cofactors, e["gens"]):
            ci = self.element(n, f, parse_univariate(c))
            gi = self.element(n, f, g)
            total = R.add[total][R.mul[ci][gi]]
        return total == R.one

