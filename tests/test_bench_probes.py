"""The benchmark's tracer (`perfbench/tracer.py`) binds each probe to an
fpdlab function by module and name.  A deleted or renamed target is not an
error there: it only shows up as `absent` in a `--trace 1` run.  This test
makes it one, and so is one function probed under two names: the tracer
rebinds by object identity, so it would wrap that function twice and count
each call twice."""
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import PROBES, Tracer  # noqa: E402


def _target(probe):
    home = importlib.import_module(probe.module)
    owner, _, attr = probe.qualname.rpartition(".")
    return vars(getattr(home, owner))[attr] if owner else getattr(home, attr)


def test_every_benchmark_probe_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == {}
    targets = [_target(p) for p in PROBES]
    assert len({id(t) for t in targets}) == len(PROBES) == 26
