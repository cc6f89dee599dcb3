import pytest

import speed


def _gauge(samples):
    gauge = speed.Gauge()
    for start, end in samples:
        gauge.starts.append(start)
        gauge.ends.append(end)
    return gauge


def test_scale_uses_the_samples_around_the_interval():
    gauge = _gauge([(0.0, 0.05), (1.0, 1.025), (3.0, 3.1)])
    # between the second and third sample: mean reference time 0.0625
    assert gauge.scale(1.5, 2.5) == pytest.approx(speed.REF_SECONDS / 0.0625)
    # an interval ending inside a sample uses the next one begun after it
    assert gauge.scale(0.06, 1.01) == pytest.approx(speed.REF_SECONDS / 0.075)


def test_scale_with_one_side_only():
    gauge = _gauge([(0.0, 0.05)])
    assert gauge.scale(1.0, 2.0) == pytest.approx(speed.REF_SECONDS / 0.05)
    with pytest.raises(ValueError):
        speed.Gauge().scale(0.0, 1.0)


def test_samples_are_taken_when_due(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 3600)
    gauge = speed.Gauge()
    gauge.sample_if_due()
    gauge.sample_if_due()
    assert len(gauge.starts) == 1 and gauge.ends[0] > gauge.starts[0]
    gauge.sample()
    assert len(gauge.starts) == 2
