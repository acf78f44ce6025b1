"""The step-insensitive record diff used when re-recording the golden
session: step counts may move, nothing else may."""
import json
from pathlib import Path

from golden_diff import main

GOLDEN = Path(__file__).parent / "data" / "golden_session.jsonl"


def _records():
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _diff(tmp_path, new_records):
    new = tmp_path / "new.jsonl"
    new.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in new_records),
                   encoding="utf-8")
    return main([str(GOLDEN), str(new)])


def test_step_changes_alone_are_not_differences(tmp_path, capsys):
    records = _records()
    resource = [r for r in records if r["status"] == "resource"]
    assert any("basis size" in r["error"] for r in resource)
    for r in records:
        r["budget"]["steps"] += 7
        if r["status"] == "resource":
            r["error"] = r["error"].replace("after 61 steps", "after 68 steps")
            r["error"] = r["error"].replace("(basis size 11, pending pairs 0)",
                                            "(basis size 9, pending pairs 4)")
    assert _diff(tmp_path, records) == 0
    assert capsys.readouterr().out == ""


def test_changed_result_is_a_difference(tmp_path, capsys):
    records = _records()
    index = next(i for i, r in enumerate(records) if "result" in r)
    records[index]["result"] = {"value": "changed"}
    assert _diff(tmp_path, records) == 1
    assert f"record {index}: result:" in capsys.readouterr().out


def test_changed_status_is_a_difference(tmp_path, capsys):
    records = _records()
    index = next(i for i, r in enumerate(records) if r["status"] == "resource")
    records[index]["status"] = "ok"
    assert _diff(tmp_path, records) == 1
    assert f"record {index}: status:" in capsys.readouterr().out


def test_summed_steps_go_to_stderr(tmp_path, capsys):
    records = _records()
    old = sum(r["budget"]["steps"] for r in records)
    for r in records:
        r["budget"]["steps"] += 7
    assert _diff(tmp_path, records) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"steps: {old} -> {old + 7 * len(records)}"


def test_step_rises_are_listed_on_stderr(tmp_path, capsys):
    # one record rises, one falls, one changes its answer: only the rise is
    # listed, and the exit code is that of the answer change
    records = _records()
    old = [r["budget"]["steps"] for r in records]
    records[3]["budget"]["steps"] += 5
    records[4]["budget"]["steps"] -= 1
    index = next(i for i, r in enumerate(records) if "result" in r and i > 4)
    records[index]["result"] = {"value": "changed"}
    assert _diff(tmp_path, records) == 1
    captured = capsys.readouterr()
    assert f"record {index}: result:" in captured.out
    assert captured.err.splitlines()[1:] == [
        f"record 3 {records[3]['command']}: steps {old[3]} -> {old[3] + 5}"]
