"""The benchmark's tracer (`perfbench/tracer.py`) binds each probe to an
fpdlab function by module and name.  A deleted or renamed target is not an
error there: it only shows up as `absent` in a `--trace 1` run.  This test
makes it one."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_every_benchmark_probe_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == {}
