import pytest

import run as bench
import speed
import tracer as tracing
import workloads


def test_eta_list_is_seeded_and_nonzero():
    assert workloads.eta_list(7) == workloads.eta_list(7)
    assert workloads.eta_list(7) != workloads.eta_list(8)
    assert len(workloads.eta_list(7)) == workloads.ETAS_PER_PASS
    assert all(eta[0] or eta[1] for seed in range(20) for eta in workloads.eta_list(seed))


def test_seed_zero_keeps_the_corpus_order(lib):
    cases = lib["cli"].corpus_cases()
    assert workloads.seeded_order(cases, 0) == cases
    shuffled = workloads.seeded_order(cases, 3)
    assert shuffled == workloads.seeded_order(cases, 3)
    assert shuffled != cases
    assert sorted(c["name"] for c in shuffled) == sorted(c["name"] for c in cases)


def _digest(lib, workload, traced: bool) -> str:
    run = bench.Run(workload, speed.Gauge())
    if traced:
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            run.one_pass(tracer)
        finally:
            tracer.uninstall()
    else:
        run.one_pass()
    assert run.failed == 0, run.failures
    (digest,) = run.digests
    return digest


def test_corpus_digest_is_deterministic_and_tracing_keeps_the_bytes(lib):
    digests = {_digest(lib, workloads.Corpus(lib, 4), traced) for traced in (False, True)}
    digests.add(_digest(lib, workloads.Corpus(lib, 4), False))
    assert len(digests) == 1


def test_eta_sweep_digest_is_deterministic_and_tracing_keeps_the_bytes(lib):
    def sweep():
        w = workloads.EtaSweep(lib, 2)
        assert not w.setup_problems
        w.etas = w.etas[:3]
        return w

    digests = {_digest(lib, sweep(), traced) for traced in (False, True)}
    digests.add(_digest(lib, sweep(), False))
    assert len(digests) == 1


class _Faulty:
    """A workload whose ops crash, give a wrong output, or succeed."""

    setup_problems = {}

    def ops(self):
        return [("crash", lambda: {}["missing"]), ("wrong", lambda: 1), ("ok", lambda: 2)]

    def output(self, label, result):
        return str(result).encode()

    def check(self, label, result):
        return None if result == 2 else "mismatch"


def test_failures_are_counted_by_kind_and_the_run_goes_on():
    run = bench.Run(_Faulty(), speed.Gauge())
    run.one_pass()
    run.one_pass()
    assert (run.attempted, run.failed) == (6, 4)
    assert run.failures == {"KeyError": 2, "mismatch": 2}
    assert len(run.latencies) == 6


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert bench.percentile(values, 0.9) == 90
    assert bench.percentile(values, 0.5) == 50
    assert bench.percentile([3.0], 0.9) == 3.0


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--workload", "corpus", "--trace", "2"]])
def test_bad_arguments_exit_nonzero(argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code != 0


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "corpus", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
