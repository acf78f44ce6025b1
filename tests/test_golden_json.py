"""Byte-identical default JSON on a fixed session: the gate for refactors
that must not change any answer, step count or error text."""
from pathlib import Path

from fpdlab.cli import CliConfig, execute_script, render_json
from fpdlab.script import parse

DATA = Path(__file__).parent / "data"
TIGHT_BUDGET = 60


def test_golden_session_json_is_byte_identical():
    text = (DATA / "golden_session.fpd").read_text(encoding="utf-8")
    out = ""
    for config in (CliConfig(), CliConfig(budget_steps=TIGHT_BUDGET)):
        # a fresh parse per run, as each `fpdlab` process makes: the rings
        # cache their Groebner bases, which would change step counts
        records, _ = execute_script(parse(text), config)
        out += render_json(records)
    expected = (DATA / "golden_session.jsonl").read_text(encoding="utf-8")
    assert out == expected
