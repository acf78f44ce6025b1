"""CLI execution, report structure, exit codes, and output determinism."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from fpdlab import finite_rings
from fpdlab import LEX, FreeModuleMap, GradeValue, complexes, koszul
from fpdlab.cli import (EXIT_COMMAND_ERROR, EXIT_INTERNAL, EXIT_OK,
                        EXIT_PARSE_ERROR, EXIT_RESOURCE, CliConfig,
                        build_arg_parser, config_from_args, execute_script,
                        main, render_json, render_text)
from fpdlab.script import parse
from helpers import encode_term

SESSION = """
ring R = QQ[x,y]/(x*y);
ideal I = (x, y);
grade I;
semiregular I;
gv I;
dim;
cm;
dqdw;
koszul I;
smodule I 0;
criterion I 1;
ext I 1;
fpd I;
oracle dq ZZ/4;
"""


def run(text, config=None):
    script = parse(text)
    return execute_script(script, config or CliConfig())


def test_full_session_reports():
    records, code = run(SESSION)
    assert code == EXIT_OK
    by_cmd = {}
    for r in records:
        by_cmd.setdefault(r["command"], r)
    assert by_cmd["grade"]["result"]["value"] == "1"
    assert by_cmd["grade"]["result"]["koszul_cross_check"] == "1"
    assert by_cmd["semiregular"]["result"]["semiregular"] is True
    assert by_cmd["gv"]["result"]["gv"] is False
    assert by_cmd["dim"]["result"]["krull_dimension"] == 1
    assert by_cmd["cm"]["result"]["cohen_macaulay"] is True
    assert by_cmd["dqdw"]["result"] == {"dq": False, "dw": True, "depth": 1,
                                        "gv_witness": None}
    assert by_cmd["koszul"]["result"]["ranks"] == [1, 2, 1]
    assert by_cmd["smodule"]["result"]["exactness_verified"] is True
    assert by_cmd["criterion"]["result"]["verdict"] == "PASS"
    assert by_cmd["criterion"]["result"]["first_nonvanishing"] == 1
    assert by_cmd["ext"]["result"]["vanishes_through"] == [True, False]
    assert by_cmd["fpd"]["result"]["bound"] == 1
    assert by_cmd["fpd"]["result"]["conclusion"] == "EXACT"
    assert by_cmd["oracle"]["result"]["dq"] is True


def test_json_output_is_byte_identical_between_runs():
    records1, _ = run(SESSION)
    records2, _ = run(SESSION)
    assert render_json(records1) == render_json(records2)
    for line in render_json(records1).splitlines():
        json.loads(line)  # every record is a valid JSON object


RESCALED_COMMANDS = "grade m; cm; dqdw; ext m 2; criterion m 1;"


def test_non_integral_rationals_match_the_unit_rescaled_session():
    # the same ring and ideal, once with non-integral coefficients and
    # non-unit leads, once rescaled by units to integer coefficients
    fractional, code1 = run("ring R = QQ[x,y,z]/(2*x*y - 1/3*z^2); "
                            "ideal m = (1/2*x, y, 3*z); " + RESCALED_COMMANDS)
    integral, code2 = run("ring R = QQ[x,y,z]/(6*x*y - z^2); "
                          "ideal m = (x, y, z); " + RESCALED_COMMANDS)
    assert code1 == code2 == EXIT_OK
    assert fractional[0]["inputs"]["ideals"] == {"m": ["1/2*x", "y", "3*z"]}
    assert fractional[0]["inputs"]["ring"] == "QQ[x,y,z]/(2*x*y - 1/3*z^2)"
    assert fractional[0]["result"]["value"] == "2"

    def without_ring_and_ideals(r):
        inputs = {k: v for k, v in r["inputs"].items() if k not in ("ring", "ideals")}
        return {**r, "inputs": inputs}
    # budget.steps included
    assert ([without_ring_and_ideals(r) for r in fractional]
            == [without_ring_and_ideals(r) for r in integral])


def test_unit_certificate_with_non_integral_cofactors():
    records, code = run("ring R = QQ[x]; ideal u = (2*x + 3, x); criterion u 1;")
    assert code == EXIT_OK
    assert records[0]["certificates"]["unit_cofactors"] == ["1/3", "-2/3"]
    assert records[0]["result"]["verdict"] == "PASS"


def test_command_error_exit_code():
    records, code = run("ring R = ZZ[x]; dim;")  # dimension unsupported over ZZ
    assert code == EXIT_COMMAND_ERROR
    assert records[0]["status"] == "error"
    assert "field" in records[0]["error"]


def test_krull_dimension_answers_to_the_budget():
    # the path x1*x2, x2*x3, ..., x19*x20 has dimension 10, found only after
    # every larger variable set of the 20: one step per set
    xs = [f"x{i}" for i in range(1, 21)]
    path = ", ".join(f"{a}*{b}" for a, b in zip(xs, xs[1:]))
    records, code = run(f"ring R = FF2[{', '.join(xs)}]/({path}); dim;",
                        CliConfig(budget_steps=1000))
    assert code == EXIT_RESOURCE
    assert records[0]["status"] == "resource"
    assert records[0]["budget"]["steps"] == 1001


def test_a_zero_dimensional_initial_ideal_takes_one_dimension_test():
    # every variable has a pure power among the leads, so no variable is
    # searched: one test, where the full search would take 2^30
    xs = [f"x{i}" for i in range(1, 31)]
    text = f"ring R = FF2[{', '.join(xs)}]/({', '.join(x + '^2' for x in xs)}); dim;"
    records, code = run(text, CliConfig(deadline=5))
    assert code == EXIT_OK
    assert records[0]["result"] == {"krull_dimension": 0}
    assert records[0]["budget"]["steps"] == 1


def test_an_exponent_past_the_engine_cap_is_a_parse_error(tmp_path, capsys):
    # 5,000,000,000 does not fit the 31-bit exponent field of a monomial
    # code: the script is refused at the `^`, before any command runs
    f = tmp_path / "cap.fpd"
    f.write_text("ring R = QQ[x,y];\nideal I = (x^5000000000, y); grade I;")
    assert main([str(f)]) == EXIT_PARSE_ERROR
    assert ("exponent 5000000000 is above the cap 2147483647 (2^31 - 1) "
            "(line 2, column 13)") in capsys.readouterr().err
    # the cap itself is an exponent like any other
    records, code = run("ring R = QQ[x,y]; ideal J = (x^2147483647, y); grade J;")
    assert code == EXIT_OK
    assert records[0]["status"] == "ok" and records[0]["result"]["value"] == "2"


def test_a_completion_past_the_exponent_cap_is_an_error_record():
    # under lex, x1 - x2^2, ..., x31 - x32^2 completes to x1 - x32^(2^31),
    # one past the cap; one variable fewer stays within it
    for n, status in ((31, "ok"), (32, "error")):
        xs = [f"x{i}" for i in range(1, n + 1)]
        chain = ", ".join(f"{a} - {b}^2" for a, b in zip(xs, xs[1:]))
        text = f"ring R = QQ[{', '.join(xs)}]/({chain}); dim;"
        records, _ = execute_script(parse(text, order=LEX), CliConfig(order=LEX))
        assert records[0]["status"] == status
        if status == "ok":
            assert records[0]["result"] == {"krull_dimension": 1}
        else:
            assert "exponent above the cap 2147483647" in records[0]["error"]


def test_internal_failure_is_not_a_command_error(monkeypatch):
    # a Koszul cross-check that disagrees with the Ext grade is a library
    # defect: it gets its own status and exit code, even next to a user error
    monkeypatch.setattr("fpdlab.invariants.koszul_grade",
                        lambda *args, **kwargs: GradeValue.finite(99))
    records, code = run("ring R = QQ[x]; ideal I = (x); grade I; "
                        "ring Z = ZZ[x]; dim;")
    assert code == EXIT_INTERNAL
    assert [r["status"] for r in records] == ["internal", "error"]
    assert "Koszul grade 99 disagrees" in records[0]["error"]


def test_a_proper_ideal_with_no_nonvanishing_ext_is_internal(monkeypatch):
    # grade I <= ht I <= the generator count (Krull's height theorem), so a
    # proper ideal whose Ext vanishes through that degree is a library defect
    monkeypatch.setattr(complexes.ExtComputer, "ext_is_zero",
                        lambda self, i, budget=None: True)
    records, code = run("ring R = QQ[x,y]; ideal m = (x, y); grade m;")
    assert code == EXIT_INTERNAL
    assert records[0]["status"] == "internal"
    assert "Ext vanishes through degree 2 for a proper ideal" in records[0]["error"]


def test_broken_library_complex_is_internal(monkeypatch):
    # a complex the library builds itself that fails its d.d = 0 check is a
    # library defect, not a fault of the input
    build = koszul._koszul_differentials

    def broken(ring, gens, top, negated):
        diffs = build(ring, gens, top, negated)
        if top >= 2:
            d2 = diffs[1]
            diffs[1] = FreeModuleMap(ring, d2.source_rank, d2.target_rank,
                                     [["1"] * d2.source_rank] * d2.target_rank)
        return diffs

    monkeypatch.setattr(koszul, "_koszul_differentials", broken)
    records, code = run("ring R = QQ[x,y]; ideal m = (x, y); koszul m; grade m;")
    assert code == EXIT_INTERNAL
    assert [r["status"] for r in records] == ["internal", "internal"]
    assert all("d_1 . d_2 is not zero" in r["error"] for r in records)


def test_resolution_that_breaks_d_d_is_internal(monkeypatch):
    # the Ext path checks d.d = 0 as it extends the resolution: a column
    # that is no syzygy is a library defect
    prune = complexes.prune_generators

    def broken(K, budget=None):
        pruned = prune(K, budget)
        e1 = {encode_term(K.ring.ambient, 0, (0,) * K.ring.ambient.nvars): K.ring.domain.one()}
        return FreeModuleMap.of_vectors(K.ring, K.target_rank, pruned.cols + (e1,))

    monkeypatch.setattr("fpdlab.complexes.prune_generators", broken)
    records, code = run("ring R = QQ[x,y]/(x*y); ideal m = (x, y); ext m 1;")
    assert code == EXIT_INTERNAL
    assert records[0]["status"] == "internal"
    assert "d_1 . d_2 is not zero" in records[0]["error"]


def test_resource_exhaustion_exit_code():
    config = CliConfig(budget_steps=3)
    records, code = run("ring R = QQ[x,y]; ideal I = (x^2 + y, x*y - 1, y^3); grade I;",
                        config)
    assert code == EXIT_RESOURCE
    assert records[0]["status"] == "resource"
    assert "budget" in records[0]["error"] or "steps" in records[0]["error"]


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.fpd"
    good.write_text("ring R = QQ[x]; ideal I = (x); semiregular I;")
    assert main([str(good)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "semiregular" in out

    bad = tmp_path / "bad.fpd"
    bad.write_text("ideal I = (x);")
    assert main([str(bad)]) == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


_HUGE = "9" * 5000  # past Python's 4,300-digit limit on int(str)
_NINES = "9" * 4300  # the longest literal Python converts


@pytest.mark.parametrize("script", [
    f"ring R = QQ[x]; ideal I = ({_HUGE}*x); grade I;",
    f"ring R = QQ[x]; ideal I = (1/{_HUGE}*x); grade I;",
    f"ring R = QQ[x]; ideal I = (x^{_HUGE}); grade I;",
    f"ring R = QQ[x]; ideal I = (x); ext I {_HUGE};",
    f"ring R = FF{_HUGE}[x];",
    f"ring R = FF {_HUGE}[x];",
    f"oracle dq ZZ/{_HUGE};",
])
def test_main_reports_a_huge_integer_literal_as_a_parse_error(tmp_path, capsys,
                                                              script):
    f = tmp_path / "huge.fpd"
    f.write_text(script)
    assert main([str(f)]) == EXIT_PARSE_ERROR
    assert "integer literal too long (5000 digits)" in capsys.readouterr().err


@pytest.mark.parametrize("script, column", [
    ("ring R = ZZ[x]; ideal I = (2^20000*x); grade I;", 29),
    # two legal powers whose product has 6,001 digits
    ("ring R = ZZ[x]; ideal I = ((10^3000)*(10^3000)); grade I;", 37),
    ("ring R = QQ[x]; ideal I = (1/3^10000*x); grade I;", 31),
    # refused from the lead coefficient's size, before 2^(10^11) is built
    ("ring R = ZZ[x]; ideal I = (2^99999999999*x); grade I;", 29),
    # a sum of two legal terms gains a digit
    (f"ring R = ZZ[x]; ideal I = ({_NINES}*x + {_NINES}*x); grade I;", 4331),
])
def test_main_reports_a_coefficient_too_long_to_render_as_a_parse_error(
        tmp_path, capsys, script, column):
    f = tmp_path / "long.fpd"
    f.write_text(script)
    assert main([str(f)]) == EXIT_PARSE_ERROR
    assert (f"coefficient too long (over 4300 digits) (line 1, column {column})"
            in capsys.readouterr().err)


@pytest.mark.parametrize("script, generator", [
    # FF(p) coefficients stay below p
    ("ring R = FF7[x]; ideal I = (3^100000*x); grade I;", "4*x"),
    # 4,300 digits is the longest that renders
    ("ring R = ZZ[x]; ideal I = (10^4299*x); grade I;", "1" + "0" * 4299 + "*x"),
])
def test_main_accepts_a_power_that_renders(tmp_path, capsys, script, generator):
    f = tmp_path / "ok.fpd"
    f.write_text(script)
    assert main(["--json", str(f)]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["inputs"]["ideals"]["I"] == [generator]


@pytest.mark.parametrize("script, column", [
    ("ring R = QQ[x]; ideal I = ((x + 1)^1000000); grade I;", 35),
    # C(44 + 2, 2) = 1,035 terms
    ("ring R = FF7[x,y,z]; ideal I = (x, (x + y + z)^44); grade I;", 47),
])
def test_a_power_of_a_sum_too_large_to_expand_is_refused_at_parse(script, column):
    """The term bound is checked before the power is expanded, so the CLI
    exits at once; a run that expands it would not finish within the limit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "fpdlab.cli", "-"], input=script,
                         env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == EXIT_PARSE_ERROR
    assert (f"power too large (over 1000 terms when expanded) (line 1, column {column})"
            in out.stderr)


def test_a_power_of_a_sum_at_the_term_bound_is_expanded():
    script = parse("ring R = QQ[x,y]; ideal I = ((x + 1)^999, (x + y + 1)^43);")
    assert [len(g.terms) for g in script.ideals["I"].generators] == [1000, 990]


def test_main_json_flag(tmp_path, capsys):
    f = tmp_path / "s.fpd"
    f.write_text("ring R = QQ[x]; dim;")
    assert main(["--json", str(f)]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert record["command"] == "dim"
    assert record["result"]["krull_dimension"] == 1


@pytest.mark.parametrize("flags", [["--budget", "100"], ["--deadline", "0.5"]])
def test_oracle_commands_obey_budget_and_deadline(tmp_path, capsys, flags):
    # 4,096 elements (the build cap): a full run takes seconds and ends ok
    f = tmp_path / "big.fpd"
    f.write_text("oracle dw ZZ/4[x]/(x^6 + 1);")
    assert main(["--json", *flags, str(f)]) == EXIT_RESOURCE
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "resource"
    assert record["budget"]["steps"] > 0


def test_env_variables_mirror_flags(monkeypatch):
    monkeypatch.setenv("FPDLAB_ORDER", "lex")
    monkeypatch.setenv("FPDLAB_BUDGET", "12345")
    monkeypatch.setenv("FPDLAB_JSON", "1")
    args = build_arg_parser().parse_args([])
    config = config_from_args(args)
    assert config.order == LEX
    assert config.budget_steps == 12345
    assert config.json_output


def test_bad_env_values_are_usage_errors(monkeypatch):
    # an env value is parsed and validated like its flag: exit 2, no traceback
    for name, value in [("ORDER", "foo"), ("BUDGET", "lots"),
                        ("DEADLINE", "soon")]:
        with monkeypatch.context() as m:
            m.setenv(f"FPDLAB_{name}", value)
            with pytest.raises(SystemExit) as exc:
                build_arg_parser().parse_args([])
            assert exc.value.code == 2  # argparse usage error
    # a flag overrides the env value, which then goes unparsed
    monkeypatch.setenv("FPDLAB_BUDGET", "lots")
    assert build_arg_parser().parse_args(["--budget", "7"]).budget == 7


def test_retired_options_are_usage_errors(capsys):
    # the grade search bound is the generator count, not an option
    with pytest.raises(SystemExit) as exc:
        main(["--max-degree", "1", "-"])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_text_rendering_mentions_inputs_and_steps():
    records, _ = run("ring R = QQ[x]; ideal I = (x); grade I;")
    text = render_text(records)
    assert "== grade ==" in text
    assert "steps" in text


def test_timings_only_with_flag():
    records, _ = run("ring R = QQQ[x]; dim;".replace("QQQ", "QQ"))
    assert all("time_ms" not in r for r in records)
    records, _ = run("ring R = QQ[x]; dim;", CliConfig(timings=True))
    assert all("time_ms" in r for r in records)


def test_importing_the_cli_does_not_import_numpy():
    """numpy is imported by the first finite-ring table, not at start-up."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, fpdlab, fpdlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


ORACLE_SESSION = """
oracle dq ZZ/4[x]/(x^2 + x);
oracle dw ZZ/4[x]/(x^2 + x);
oracle ideals ZZ/4[x]/(x^2 + x);
oracle ideals ZZ/6;
"""


def _count_oracle_work(monkeypatch) -> dict:
    counts = {"quotient": 0, "integers_mod": 0, "ideals": 0}
    quotient = finite_rings.FiniteRing.quotient
    integers_mod = finite_rings.FiniteRing.integers_mod
    all_ideals = finite_rings._all_ideals

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(finite_rings.FiniteRing, "quotient",
                        staticmethod(counted("quotient", quotient)))
    monkeypatch.setattr(finite_rings.FiniteRing, "integers_mod",
                        staticmethod(counted("integers_mod", integers_mod)))
    monkeypatch.setattr(finite_rings, "_all_ideals", counted("ideals", all_ideals))
    return counts


def test_oracle_ring_is_built_once_per_script(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    records, code = run(ORACLE_SESSION)
    assert code == EXIT_OK
    assert [r["status"] for r in records] == ["ok"] * 4
    # dq, dw and ideals on ZZ/4[x]/(x^2 + x) share one table and one ideal
    # enumeration; ZZ/6 is a second ring
    assert counts == {"quotient": 1, "integers_mod": 1, "ideals": 2}


def test_oracle_ring_cache_lives_on_the_parsed_script(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    first, _ = run(ORACLE_SESSION)
    second, _ = run(ORACLE_SESSION)
    assert counts == {"quotient": 2, "integers_mod": 2, "ideals": 4}
    assert render_json(first) == render_json(second)


def test_a_huge_oracle_relation_is_an_error_record_between_ok_ones():
    records, code = run("oracle dq ZZ/4; oracle dq ZZ/2[x]/(x^20000); oracle dq ZZ/4;")
    assert [r["status"] for r in records] == ["ok", "error", "ok"]
    assert records[1]["error"] == "ring order 2^20000 exceeds the cap 4096"
    assert code == EXIT_COMMAND_ERROR


def test_a_huge_oracle_relation_is_refused_before_anything_is_built():
    tracemalloc.start()
    try:
        records, _ = run("oracle dq ZZ/2[x]/(x^10000000);")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records[0]["status"] == "error"
    assert peak < 10 * 2 ** 20

