"""Compare two `fpdlab --json` record streams, ignoring step counts.

    python tests/golden_diff.py OLD.jsonl NEW.jsonl

Exits 0 when both streams hold the same records once `budget.steps` is
dropped and, in `resource` records, the " after N steps" and " (basis size
N, pending pairs M)" parts of `error`.  Otherwise it prints every other
difference with its 0-based record index and exits 1; a changed status,
such as `resource` becoming `ok`, is a difference.  This is the check for a
change that may move step counts but no answer, e.g. before re-recording
`tests/data/golden_session.jsonl`.  It also prints one line to standard
error, "steps: OLD -> NEW", the summed `budget.steps` of each stream, and
then one line per record whose `budget.steps` rose, "record I COMMAND:
steps OLD -> NEW", so a log of the comparison shows how far the step counts
moved and where any of them went up.
"""
from __future__ import annotations

import json
import re
import sys

_STEP_TEXT = re.compile(r" after \d+ steps| \(basis size \d+, pending pairs \d+\)")


def _strip(record: dict) -> dict:
    record = dict(record)
    if isinstance(record.get("budget"), dict):
        record["budget"] = {k: v for k, v in record["budget"].items() if k != "steps"}
    if record.get("status") == "resource" and isinstance(record.get("error"), str):
        record["error"] = _STEP_TEXT.sub("", record["error"])
    return record


def differences(old_text: str, new_text: str) -> list:
    """One line per difference that is not a step count."""
    old = [_strip(r) for r in _records(old_text)]
    new = [_strip(r) for r in _records(new_text)]
    out = []
    if len(old) != len(new):
        out.append(f"record count: {len(old)} -> {len(new)}")
    for index, (a, b) in enumerate(zip(old, new)):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key) or (key in a) != (key in b):
                out.append(f"record {index}: {key}: {json.dumps(a.get(key), sort_keys=True)}"
                           f" -> {json.dumps(b.get(key), sort_keys=True)}")
    return out


def _steps(record: dict) -> int:
    budget = record.get("budget")
    return budget.get("steps", 0) if isinstance(budget, dict) else 0


def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def steps(text: str) -> int:
    """The summed `budget.steps` of a record stream."""
    return sum(_steps(r) for r in _records(text))


def rises(old_text: str, new_text: str) -> list:
    """One line per record, by index, whose `budget.steps` rose."""
    return [f"record {index} {b.get('command')}: steps {_steps(a)} -> {_steps(b)}"
            for index, (a, b) in enumerate(zip(_records(old_text), _records(new_text)))
            if _steps(b) > _steps(a)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: golden_diff.py OLD NEW", file=sys.stderr)
        return 2
    texts = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    found = differences(*texts)
    print(f"steps: {steps(texts[0])} -> {steps(texts[1])}", file=sys.stderr)
    for line in rises(*texts):
        print(line, file=sys.stderr)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
