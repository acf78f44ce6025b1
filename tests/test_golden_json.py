"""Byte-identical default JSON on a fixed session: the gate for refactors
that must not change any answer, step count or error text."""
import json
from pathlib import Path

from fpdlab.cli import CliConfig, execute_script, render_json
from fpdlab.script import parse
from golden_diff import differences

DATA = Path(__file__).parent / "data"
TIGHT_BUDGET = 60


def _steps(text: str) -> list:
    return [json.loads(line).get("budget", {}).get("steps")
            for line in text.splitlines() if line.strip()]


def _mismatch(expected: str, out: str) -> str:
    """What moved: the non-step differences, then the records whose steps moved."""
    moved = [i for i, (a, b) in enumerate(zip(_steps(expected), _steps(out))) if a != b]
    lines = ["golden session JSON differs from tests/data/golden_session.jsonl"]
    lines += differences(expected, out) or ["no difference besides step counts"]
    lines.append(f"budget.steps moved in records {moved}")
    return "\n".join(lines)


def test_golden_session_json_is_byte_identical():
    text = (DATA / "golden_session.fpd").read_text(encoding="utf-8")
    out = ""
    for config in (CliConfig(), CliConfig(budget_steps=TIGHT_BUDGET)):
        # a fresh parse per run, as each `fpdlab` process makes: the rings
        # cache their Groebner bases, which would change step counts
        records, _ = execute_script(parse(text), config)
        out += render_json(records)
    expected = (DATA / "golden_session.jsonl").read_text(encoding="utf-8")
    assert out == expected, _mismatch(expected, out)
