"""CLI execution, report structure, exit codes, and output determinism."""
import json

import pytest
from fpdlab import LEX, GradeValue
from fpdlab.cli import (EXIT_COMMAND_ERROR, EXIT_INTERNAL, EXIT_OK,
                        EXIT_PARSE_ERROR, EXIT_RESOURCE, CliConfig,
                        build_arg_parser, config_from_args, execute_script,
                        main, render_json, render_text)
from fpdlab.script import parse

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
fpd I --exhaustive;
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


def test_command_error_exit_code():
    records, code = run("ring R = ZZ[x]; dim;")  # dimension unsupported over ZZ
    assert code == EXIT_COMMAND_ERROR
    assert records[0]["status"] == "error"
    assert "field" in records[0]["error"]


def test_internal_failure_is_not_a_command_error(monkeypatch):
    # a Koszul cross-check that disagrees with the Ext grade is a library
    # defect: it gets its own status and exit code, even next to a user error
    monkeypatch.setattr("fpdlab.invariants.koszul_grade",
                        lambda *args: GradeValue.finite(99))
    records, code = run("ring R = QQ[x]; ideal I = (x); grade I; "
                        "ring Z = ZZ[x]; dim;")
    assert code == EXIT_INTERNAL
    assert [r["status"] for r in records] == ["internal", "error"]
    assert "Koszul grade 99 disagrees" in records[0]["error"]


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


def test_main_json_flag(tmp_path, capsys):
    f = tmp_path / "s.fpd"
    f.write_text("ring R = QQ[x]; dim;")
    assert main(["--json", str(f)]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert record["command"] == "dim"
    assert record["result"]["krull_dimension"] == 1


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
