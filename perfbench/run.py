"""fpdlab benchmark: seeded session-script workloads, timed end to end, with a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload ext_zz --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  With `--trace 0` it times at least MIN_BLOCKS whole blocks, and
more while the timed total is below `--seconds`, and prints the end-to-end
metrics; with `--trace 1` it runs a fixed corpus (block 0 of the seed) once
untraced and twice traced, each in a fresh process, and prints the per-layer
metrics, the tracing overhead and any difference between the two traced
runs' deterministic counts.  Every record is checked; the last line of
standard output is one JSON object, and the exit code is 1 when any answer is
wrong.

The scripts each run executed are written to `perfbench/out/` as `.fpd`
files, so any command can be replayed with `fpdlab --json FILE`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from checks import OracleFacts, check_record  # noqa: E402
from tracer import layer_moves, metric_values  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5       # fresh processes before and again after the timed run
MAX_BLOCKS = 64
MIN_BLOCKS = 2          # blocks every timed run completes, however long they take
DEADLINE = time.monotonic() + 170   # every process this run starts ends by then
SETUP_PROGRAM = ("import time; t = time.perf_counter(); import fpdlab, fpdlab.cli; "
                 "print(repr(time.perf_counter() - t))")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _remaining() -> float:
    return max(DEADLINE - time.monotonic(), 1.0)


def measure_setup(samples: int) -> list:
    """Times, each in a fresh process, to import fpdlab and its CLI."""
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=_remaining(), check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_worker(run_dir: Path, label: str, blocks: list, seconds: float,
               trace: bool, spans: bool = False) -> dict:
    job = {"src": str(SRC), "seconds": seconds, "min_blocks": MIN_BLOCKS, "trace": trace,
           "blocks": [[{"name": s.name, "text": s.text} for s in b] for b in blocks],
           "out": str(run_dir / f"{label}.result.json"),
           "spans": str(run_dir / f"{label}.spans.tsv") if spans else None}
    job_path = run_dir / f"{label}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   cwd=ROOT, env=_env(), timeout=_remaining(), check=True)
    return json.loads(Path(job["out"]).read_text(encoding="utf-8"))


def check_samples(samples: list, scripts: dict, oracle: OracleFacts) -> list:
    """[(command, problems)] for every sample whose record is wrong."""
    failures = []
    for s in samples:
        expected = scripts[s["script"]].expected[s["index"]]
        problems = check_record(json.loads(s["record"]), expected, oracle)
        if problems:
            failures.append((f"{s['script']} command {s['index']}", problems))
    return failures


def write_scripts(run_dir: Path, scripts: dict, samples: list):
    for name in dict.fromkeys(s["script"] for s in samples):
        (run_dir / f"{name}.fpd").write_text(scripts[name].text, encoding="utf-8")


def harrell_davis(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each one's
    share of [0, 1].  A single order statistic in the tail jumps between the
    few commands around it; this estimate moves smoothly with them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100     # trapezoid steps per order statistic

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):
        mass, right = 0.0, density(i / n)
        for j in range(1, steps + 1):
            left, right = right, density((i * steps + j) / (n * steps))
            mass += (left + right) / 2
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def latency_tail(samples: list, per_block: int) -> tuple:
    """(value, percentile, sample count): the Harrell-Davis estimate, over all
    the run's samples, of the latency at the highest percentile that has at
    least ten samples beyond it among MIN_BLOCKS blocks' samples.  The
    percentile is fixed per workload (every block holds the same command
    mix), so it does not move with the number of blocks a run completes."""
    n = MIN_BLOCKS * per_block
    q = (n - 10) / n
    return (harrell_davis([s["seconds"] * 1000.0 for s in samples], q),
            100.0 * q, len(samples))


def end_to_end(args, run_dir: Path) -> tuple:
    measure_setup(1)    # writes the bytecode cache; not counted
    setup = measure_setup(SETUP_SAMPLES)
    blocks = [corpus.block(args.workload, args.seed, b) for b in range(MAX_BLOCKS)]
    scripts = {s.name: s for b in blocks for s in b}
    result = run_worker(run_dir, "run", blocks, args.seconds, trace=False)
    setup_s = statistics.median(setup + measure_setup(SETUP_SAMPLES))
    samples = result["samples"]
    write_scripts(run_dir, scripts, samples)
    failures = check_samples(samples, scripts, OracleFacts())
    latencies = [s["seconds"] * 1000.0 for s in samples]
    ok = len(samples) - len(failures)
    tail, pct, n = latency_tail(samples, sum(len(s.expected) for s in blocks[0]))
    metrics = {
        "cmds_per_s": (ok / result["timed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ok_frac": (ok / len(samples), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    report = {"workload": args.workload, "seed": args.seed,
              "blocks_run": result["blocks_run"], "timed_s": result["timed_s"],
              "latency_tail_percentile": pct, "latency_tail_estimator": "Harrell-Davis",
              "latency_samples": n,
              "failed_frac": len(failures) / len(samples),
              "scripts_dir": str(run_dir.relative_to(ROOT))}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            len(samples), failures, report)


def determinism_findings(a: dict, b: dict) -> list:
    """Differences between two traced runs' counts (everything but self
    times) and per-command steps."""
    findings = []
    for layer in sorted(set(a["totals"]) | set(b["totals"])):
        ca, cb = a["totals"].get(layer, {}), b["totals"].get(layer, {})
        for key in sorted((set(ca) | set(cb)) - {"self_ms"}):
            if ca.get(key) != cb.get(key):
                findings.append(f"{layer}.{key}: {ca.get(key)} vs {cb.get(key)}")
    for sa, sb in zip(a["samples"], b["samples"]):
        steps_a = json.loads(sa["record"])["budget"]["steps"]
        steps_b = json.loads(sb["record"])["budget"]["steps"]
        if steps_a != steps_b:
            findings.append(f"{sa['script']} command {sa['index']} budget.steps: "
                            f"{steps_a} vs {steps_b}")
    return findings


def results_differ(a: dict, b: dict) -> list:
    """Commands whose default-JSON status or result differs between runs."""
    out = []
    for sa, sb in zip(a["samples"], b["samples"]):
        ra, rb = json.loads(sa["record"]), json.loads(sb["record"])
        if (ra["status"], ra.get("result")) != (rb["status"], rb.get("result")):
            out.append(f"{sa['script']} command {sa['index']}")
    return out


def per_layer(args, run_dir: Path) -> tuple:
    blocks = [corpus.block(args.workload, args.seed, 0)]
    scripts = {s.name: s for s in blocks[0]}
    plain = run_worker(run_dir, "untraced", blocks, 0, trace=False)
    first = run_worker(run_dir, "traced1", blocks, 0, trace=True, spans=True)
    second = run_worker(run_dir, "traced2", blocks, 0, trace=True)
    write_scripts(run_dir, scripts, plain["samples"])
    failures = check_samples(plain["samples"], scripts, OracleFacts())
    failures += [(command, ["traced result differs from untraced"])
                 for traced in (first, second)
                 for command in results_differ(plain, traced)]
    metrics = metric_values(first["totals"], first["absent"])
    steps = sum(json.loads(s["record"])["budget"]["steps"] for s in first["samples"])
    metrics["cli.steps"] = {"value": steps, "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": first["timed_s"] / plain["timed_s"] - 1.0, "unit": "frac"}
    report = {"workload": args.workload, "seed": args.seed,
              "untraced_s": plain["timed_s"], "traced_s": first["timed_s"],
              "absent": first["absent"], "layer_moves": layer_moves(),
              "nondeterminism": determinism_findings(first, second),
              "spans": str((run_dir / "traced1.spans.tsv").relative_to(ROOT))}
    return metrics, len(plain["samples"]), failures, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fpdlab" / "__init__.py").is_file():
        print(f"error: no fpdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))    # the oracle_sweep reference answers
    run_dir = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, report = measure(args, run_dir)
    for command, problems in failures:
        print(f"WRONG {command}: {'; '.join(problems)}", file=sys.stderr)
    for finding in report.get("nondeterminism", []):
        print(f"nondeterminism finding: {finding}")
    report["failures"] = len(failures)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
