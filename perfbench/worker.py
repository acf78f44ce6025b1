"""One workload process: a single client running session scripts in a closed
loop (the next command starts when the previous one returns).

    python3 perfbench/worker.py JOB.json

JOB.json holds the source directory, the blocks of script texts, the time to
measure (0 runs every block), the number of blocks that always run, whether
to trace, and where to write results.
Each script is parsed with `fpdlab.script.parse` and each command runs
through `fpdlab.cli.run_command` with the default `CliConfig` and is rendered
with `fpdlab.cli.render_json`, the path `fpdlab --json` takes.  One timed
sample is one command; the script's parse time counts towards its first
command.  Blocks run whole: after the first `min_blocks`, a new block starts
only while the timed total is below the requested seconds.  A full garbage
collection before each script, outside the timed region, starts every script
from the same collector state, as a fresh `fpdlab` process would.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import fpdlab.cli
    import fpdlab.script

    from tracer import Tracer

    tracer = Tracer() if job["trace"] else None
    config = fpdlab.cli.CliConfig()
    seconds = job["seconds"]
    samples = []
    timed = 0.0
    blocks_run = 0
    with tracer.installed() if tracer else nullcontext():
        for block_index, block in enumerate(job["blocks"]):
            if seconds and timed >= seconds and block_index >= job["min_blocks"]:
                break
            for script in block:
                gc.collect()
                if tracer:
                    tracer.command_id = len(samples)
                t0 = perf_counter()
                parsed = fpdlab.script.parse(script["text"])
                carry = perf_counter() - t0
                for index, command in enumerate(parsed.commands()):
                    if tracer:
                        tracer.command_id = len(samples)
                    t0 = perf_counter()
                    record = fpdlab.cli.run_command(parsed, command, config)
                    line = fpdlab.cli.render_json([record])
                    dt = perf_counter() - t0 + carry
                    carry = 0.0
                    timed += dt
                    samples.append({"block": block_index, "script": script["name"],
                                    "index": index, "seconds": dt, "record": line})
            blocks_run += 1
    out = {"samples": samples, "blocks_run": blocks_run, "timed_s": timed,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["totals"] = tracer.layer_totals()
        out["absent"] = tracer.absent
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    return out


def main(argv) -> int:
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = run(job)
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
