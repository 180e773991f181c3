"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probe  # noqa: E402
import workloads  # noqa: E402
from spraylab import cli, jets, sampling  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402

FLAT = workloads._cli_job("classify flat",
                          ["classify", "flat", "--points", "8", "--seed", "3"])


class MiscountingTracer(Tracer):
    """Counts samples with a wrapper that raises now and then.  sample_points
    swallows the exception as a rejection, so only the output can show it."""

    def _sample_points(self, fn):
        def wrapper(*args, accept=None, **kwargs):
            calls = itertools.count()

            def faulty(pt):
                if next(calls) % 5 == 4:
                    raise RuntimeError("counter bug")
                return accept(pt)

            return fn(*args, accept=faulty, **kwargs)

        return self.span("sampling.sample_points", wrapper)


def traced_pass(tracer_cls, jobs):
    runner = Runner({})
    plain = runner.run_pass(jobs)
    tracer = tracer_cls()
    tracer.install()
    try:
        traced = runner.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def test_traced_pass_reproduces_untraced_output():
    plain, traced, tracer = traced_pass(Tracer, [FLAT])
    assert [j["error"] for j in plain["jobs"] + traced["jobs"]] == [None, None]
    counts = tracer.layer_metrics()
    assert counts["sampling.candidates"]["value"] > 0
    assert counts["cli.self_s"]["value"] > 0


def test_faulty_counting_wrapper_is_caught():
    plain, traced, _ = traced_pass(MiscountingTracer, [FLAT])
    assert plain["jobs"][0]["error"] is None
    assert "differs" in traced["jobs"][0]["error"]


def test_counters_repeat_exactly():
    def counts():
        _, _, tracer = traced_pass(Tracer, [FLAT])
        # jet spaces are built once per process, so only the first pass
        # builds any
        return {k: m["value"] for k, m in tracer.layer_metrics().items()
                if m["unit"] == "count" and k != "jets.spaces"}

    first = counts()
    assert first == counts()
    assert first["jets.mul_calls"] > 0


def test_uninstall_restores_every_entry_point():
    before = (cli.main, sampling.sample_points, jets._mul_coeffs,
              jets.Jet.__dict__["diff"], cli.sample_points)
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[0] and cli.sample_points is not before[4]
    tracer.uninstall()
    assert before == (cli.main, sampling.sample_points, jets._mul_coeffs,
                      jets.Jet.__dict__["diff"], cli.sample_points)


def test_recorded_digest_mismatch_fails_the_job():
    runner = Runner({"classify flat": "0" * 64})
    record = runner.run_pass([FLAT])["jobs"][0]
    assert "differs" in record["error"]


def test_nonzero_exit_fails_the_job():
    job = workloads._cli_job("classify nosuch", ["classify", "no-such-fixture"])
    record = Runner({}).run_pass([job])["jobs"][0]
    assert record["error"] == "check failed: exit code 1"


def test_probe_passes_on_the_real_kernels():
    metrics, errors = probe.run(seed=1)
    assert errors == []
    assert len(metrics) == 18
    assert all(m["value"] > 0 for m in metrics.values())


def test_probe_fails_a_broken_kernel(monkeypatch):
    real = jets._mul_coeffs

    def off_by_1e6(sp, a, b):
        out = real(sp, a, b)
        out[1] += 1e-6
        return out

    monkeypatch.setattr(jets, "_mul_coeffs", off_by_1e6)
    _, errors = probe.run(seed=1)
    assert any(e.startswith("jets.mul_us") for e in errors)
    assert any(e.startswith("jets.exp_us") for e in errors)


def test_gen_pflat_report_repeats_in_a_fresh_directory(tmp_path, monkeypatch):
    digests = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        job = workloads.highdim_jobs(3, workdir)[0]
        assert job.label == "gen-pflat dim 3"
        runner = Runner({})
        record = runner.run_pass([job])["jobs"][0]
        assert record["error"] is None
        digests.append(runner.seen[job.label])
        code, payload = job.call()
        assert json.loads(payload)["generated"]["spray_path"] == "gen/pflat3_spray.spray"
    assert digests[0] == digests[1]


def test_highdim_inputs_repeat_for_a_seed(tmp_path, monkeypatch):
    def inputs(seed, workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        jobs = workloads.highdim_jobs(seed, workdir)
        files = sorted(p.read_text() for p in (workdir / "sprays").iterdir())
        return [job.call.args for job in jobs], files

    first = inputs(3, tmp_path / "a")
    assert first == inputs(3, tmp_path / "b")
    assert first != inputs(4, tmp_path / "c")
