"""Replay benchmark blocks and print their default JSON records.

    python tests/replay_blocks.py --workload graded_field --seed 7 --blocks 0,1 [--cold]

Each script of the named blocks of `perfbench/corpus.py` is parsed with
`fpdlab.script.parse`, and each command runs through `fpdlab.cli.run_command`
with the default `CliConfig` and is rendered with `fpdlab.cli.render_json`,
as the benchmark worker does, so later commands reuse the derived work of
earlier ones on the same ideal.  With `--cold` the script is parsed afresh
for every command, so none does.  The records go to standard output as one
JSON line each, so two streams (say, before and after a refactor, or cold
and shared) compare with `cmp` or, ignoring step counts, with
`tests/golden_diff.py`.  Run from the root of a source checkout; the
package is imported from its `src/`.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from fpdlab.cli import CliConfig, render_json, run_command  # noqa: E402
from fpdlab.script import parse  # noqa: E402


def replay(workload: str, seed: int, blocks, cold: bool = False) -> str:
    config = CliConfig()
    out = []
    for b in blocks:
        for script in corpus.block(workload, seed, b):
            parsed = parse(script.text)
            for index, command in enumerate(parsed.commands()):
                if cold:
                    parsed = parse(script.text)
                    command = parsed.commands()[index]
                out.append(render_json([run_command(parsed, command, config)]))
    return "".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", default="0",
                    help="comma-separated block indices (default 0)")
    ap.add_argument("--cold", action="store_true",
                    help="parse the script afresh for every command")
    args = ap.parse_args(argv)
    blocks = [int(b) for b in args.blocks.split(",")]
    sys.stdout.write(replay(args.workload, args.seed, blocks, args.cold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
