"""The latency statistics the end-to-end report is built from."""
import pytest

from run import MIN_BLOCKS, harrell_davis, latency_tail


def test_harrell_davis_on_known_samples():
    assert harrell_davis([4.0] * 30, 0.9) == pytest.approx(4.0)
    assert harrell_davis(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    values = [float(v * v) for v in range(60)]
    estimates = [harrell_davis(values, q) for q in (0.1, 0.5, 0.8, 0.95)]
    assert estimates == sorted(estimates)
    assert min(values) < estimates[0] and estimates[-1] < max(values)


def test_tail_percentile_is_fixed_by_the_block_not_the_run_length():
    block = [1.0 + i for i in range(40)]       # one block's latencies, in seconds

    def samples(blocks):
        return [{"seconds": s} for _ in range(blocks) for s in block]
    two = latency_tail(samples(MIN_BLOCKS), len(block))
    three = latency_tail(samples(MIN_BLOCKS + 1), len(block))
    n = MIN_BLOCKS * len(block)
    assert two[1] == three[1] == pytest.approx(100.0 * (n - 10) / n)
    assert (two[2], three[2]) == (n, n + len(block))
    assert three[0] == pytest.approx(two[0], rel=0.02)
    assert 1000.0 * block[-6] < two[0] < 1000.0 * block[-1]
