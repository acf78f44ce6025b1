"""The seeded generator and the correctness gate."""
import json

import pytest

import corpus
from checks import OracleFacts, check_record, parse_univariate


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_scripts(workload):
    first = [(s.name, s.text, s.expected) for s in corpus.block(workload, 7, 3)]
    again = [(s.name, s.text, s.expected) for s in corpus.block(workload, 7, 3)]
    other = [(s.name, s.text, s.expected) for s in corpus.block(workload, 8, 3)]
    assert first == again
    assert first != other


EQUAL_COST = {"fpd": "grade"}     # ext_zz runs one or the other per ideal


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_block_has_the_same_command_mix(workload):
    def shape(seed, b):
        return sorted(
            (s.text.splitlines()[1], EQUAL_COST.get(line.split()[0], line.split()[0]))
            for s in corpus.block(workload, seed, b)
            for line in s.text.splitlines()[2:] if not line.startswith("ideal"))
    assert shape(1, 0) == shape(1, 1) == shape(2, 5)


def test_generated_scripts_parse_with_one_expectation_per_command():
    from fpdlab.script import parse
    for workload in corpus.WORKLOADS:
        for s in corpus.block(workload, 11, 0):
            assert len(parse(s.text).commands()) == len(s.expected)


def test_parse_univariate_reads_printed_polynomials():
    assert parse_univariate("-3*x - 3") == [-3, -3]
    assert parse_univariate("2*x^4 + x^2 + 7") == [7, 0, 1, 0, 2]
    assert parse_univariate("x") == [0, 1]
    assert parse_univariate("0") == [0]


def _run(text):
    from fpdlab.cli import CliConfig, run_command
    from fpdlab.script import parse
    script = parse(text)
    return [json.loads(json.dumps(run_command(script, c, CliConfig())))
            for c in script.commands()]


def test_gate_remultiplies_unit_cofactors_and_flags_wrong_answers():
    oracle = OracleFacts()
    ideal = {"n": 5, "f": [1, 1, 1], "gens": [[1, 1]]}      # x + 1 in FF5[x]/(x^2+x+1)
    record, = _run("ring R = FF5[x]/(x^2 + x + 1); ideal I = (x + 1); criterion I 1;")
    expected = {"command": "criterion", "degree": 1, **ideal}
    assert check_record(record, expected, oracle) == []
    forged = dict(record, certificates={"unit_cofactors": ["2"]})
    assert check_record(forged, expected, oracle)
    wrong = dict(record, result=dict(record["result"], verdict="COUNTEREXAMPLE"))
    assert check_record(wrong, expected, oracle)


def test_gate_accepts_a_correct_ext_zz_record_and_rejects_a_wrong_grade():
    k = 2
    record, = _run(f"ring R = ZZ[a,b,c]/(a^2 - {k * k}*b, a*b - {k}*c, a*c - {k}*b^2,"
                   " b^3 - c^2); ideal M = (2, a, b, c); grade M;")
    assert check_record(record, {"command": "grade", "grade": 1, "koszul": False},
                        OracleFacts()) == []
    assert check_record(record, {"command": "grade", "grade": 2, "koszul": False},
                        OracleFacts())
