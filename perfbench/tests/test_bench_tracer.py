"""The outside-in tracer: self-time arithmetic, restoring fpdlab, and
identical answers with tracing on."""
import json
import sys
import time
from pathlib import Path

from tracer import METRICS, PROBES, Probe, Tracer, self_times

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children overlap each other and one sticks out
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.75]
    parents = [-1, 0, 0, 0, 2]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == 10.0 - (4.0 + 2.0)
    assert selfs[1] == 2.0
    assert selfs[2] == 3.0 - 0.25
    assert selfs[4] == 0.25


def test_self_time_of_a_synthetic_nested_call():
    probes = (Probe("outer", "m", "outer"), Probe("inner", "m", "inner"))
    tracer = Tracer(probes)
    inner = tracer._wrap(lambda: time.sleep(0.002), probes[1])
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], probes[0])
    outer()
    totals = tracer.layer_totals()
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 3
    starts, ends = tracer.span_start, tracer.span_end
    outer_ms = (ends[0] - starts[0]) * 1000.0
    inner_ms = sum(ends[i] - starts[i] for i in range(1, 4)) * 1000.0
    assert abs(totals["outer"]["self_ms"] - (outer_ms - inner_ms)) < 1e-6
    assert abs(totals["inner"]["self_ms"] - inner_ms) < 1e-6


def _fpdlab_bindings():
    import fpdlab.cli  # noqa: F401  (loads every module)
    out = {}
    for name, module in sys.modules.items():
        if name == "fpdlab" or name.startswith("fpdlab."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("fpdlab"):
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def test_tracer_restores_every_fpdlab_binding():
    import fpdlab.groebner
    import fpdlab.modules
    before = _fpdlab_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert fpdlab.groebner.vec_normal_form is not before[("fpdlab.groebner", "vec_normal_form")]
        assert fpdlab.modules.vec_groebner is not before[("fpdlab.modules", "vec_groebner")]
    after = _fpdlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == {}


def test_missing_function_is_reported_absent():
    tracer = Tracer((Probe("groebner.renamed", "fpdlab.groebner", "_no_such_function"),))
    with tracer.installed():
        pass
    assert "does not exist" in tracer.absent["groebner.renamed"]


SCRIPT = """
ring R = QQ[x,y,z]/(x*y, y*z); ideal m = (x, y, z); grade m; cm; koszul m;
ring S = ZZ[a,b]/(a^2 - 4*b); ideal M = (2, a, b); criterion M 1;
ring F = FF5[x]/(x^3 + x^2); ideal I = (x + 1); semiregular I; criterion I 1;
oracle dw FF5[x]/(x^2 + x + 1);
"""


def _render_all():
    import fpdlab.cli
    import fpdlab.script
    script = fpdlab.script.parse(SCRIPT)
    config = fpdlab.cli.CliConfig()
    return [fpdlab.cli.render_json([fpdlab.cli.run_command(script, c, config)])
            for c in script.commands()]


def test_traced_and_untraced_runs_give_identical_default_json():
    plain = _render_all()
    tracer = Tracer()
    with tracer.installed():
        traced = _render_all()
    assert traced == plain
    totals = tracer.layer_totals()
    assert totals["cli.dispatch"]["calls"] == len(plain)
    assert totals["finite_rings.build"]["calls"] >= 1


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == [m[0] for m in METRICS] + ["cli.steps", "trace.overhead_frac"]
    assert {p.layer for p in PROBES} >= {m[0].rsplit(".", 1)[0] for m in METRICS}


def test_determinism_report_names_every_difference():
    from run import determinism_findings

    def traced(calls, self_ms, steps):
        return {"totals": {"modules.kernel": {"calls": calls, "self_ms": self_ms}},
                "samples": [{"script": "b000-s0", "index": 0,
                             "record": json.dumps({"budget": {"steps": steps}})}]}
    assert determinism_findings(traced(3, 1.0, 5), traced(3, 9.0, 5)) == []
    assert determinism_findings(traced(3, 1.0, 5), traced(4, 1.0, 6)) == [
        "modules.kernel.calls: 3 vs 4", "b000-s0 command 0 budget.steps: 5 vs 6"]
