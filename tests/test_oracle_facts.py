"""The benchmark's correctness gate reads the finite-ring tables directly.

`perfbench/checks.py` computes the oracle_sweep reference answers with
`fpdlab.finite_rings` and re-multiplies unit cofactors in a ring's tables as
`R.add[total][R.mul[ci][gi]]`.  These tests pin that contract from this side,
since the gate itself only runs inside the benchmark.
"""
import sys
from pathlib import Path

import pytest
from fpdlab.cli import CliConfig, run_command
from fpdlab.script import parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import OracleFacts, check_record  # noqa: E402

FF16 = {"n": 2, "f": [1, 1, 0, 0, 1]}   # FF2[x]/(x^4 + x + 1), a field


@pytest.mark.parametrize("ring, gens, semiregular, gv, unit", [
    ({"n": 4, "f": None}, [[2]], False, False, False),    # (2) in ZZ/4: Ann = (2)
    ({"n": 6, "f": None}, [[2], [3]], True, True, True),  # 2*2 - 3 = 1
    (FF16, [[0, 1]], True, True, True),                   # x, a unit of the field
    ({"n": 8, "f": [0, 0, 1]}, [[0, 1]], False, False, False),  # x in ZZ/8[x]/(x^2)
], ids=["ZZ4-two", "ZZ6-unit", "FF16-x", "ZZ8-dual-x"])
def test_expected_results_from_the_tables(ring, gens, semiregular, gv, unit):
    facts = OracleFacts()
    ideal = dict(ring, gens=gens)
    assert facts.expected_result(dict(ideal, command="semiregular")) == (
        {"semiregular": semiregular}, False)
    assert facts.expected_result(dict(ideal, command="gv")) == ({"gv": gv}, False)
    want, certified = facts.expected_result(dict(ideal, command="criterion", degree=1))
    assert certified is unit
    assert want["verdict"] == "PASS" and want["profile"] == [semiregular, True]
    assert want["first_nonvanishing"] == (None if unit else int(semiregular))


@pytest.mark.parametrize("ring, gens, good, bad", [
    ({"n": 6, "f": None}, [[2], [3]], ["2", "-1"], ["1", "1"]),
    (FF16, [[0, 1]], ["x^3 + 1"], ["x^3"]),           # x * (x^3 + 1) = x^4 + x = 1
    ({"n": 300, "f": None}, [[7]], ["43"], ["42"]),  # 16-bit tables: 7 * 43 = 301
], ids=["ZZ6", "FF16", "ZZ300"])
def test_unit_cofactors_multiply_back_in_the_tables(ring, gens, good, bad):
    facts = OracleFacts()
    e = dict(ring, gens=gens, command="criterion", degree=1)
    assert facts.certifies_unit(e, good)
    assert not facts.certifies_unit(e, bad)
    assert not facts.certifies_unit(e, None)
    assert not facts.certifies_unit(e, good + good)


def test_cli_records_pass_the_gate():
    """The Groebner route's answers and cofactors on ZZ/6, checked by the
    gate exactly as the benchmark checks them."""
    script = parse("ring R = ZZ[x]/(6, x);\nideal U = (2, 3);\nideal I = (2);\n"
                   "criterion U 1;\ngv U;\nsemiregular I;\noracle dw ZZ/6;\n"
                   "oracle ideals ZZ/6;\n")
    ring = {"n": 6, "f": None}
    expected = [dict(ring, command="criterion", degree=1, gens=[[2], [3]]),
                dict(ring, command="gv", gens=[[2], [3]]),
                dict(ring, command="semiregular", gens=[[2]]),
                dict(ring, command="oracle", check="dw"),
                dict(ring, command="oracle", check="ideals")]
    facts = OracleFacts()
    records = [run_command(script, c, CliConfig()) for c in script.commands()]
    assert records[0]["certificates"]["unit_cofactors"]
    for record, e in zip(records, expected, strict=True):
        assert check_record(record, e, facts) == []
