"""End-to-end runs of the command line driver."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import loop_jsonable
from spraylab import classify, cli, corpus, geometry, metrize, pflat, sampling
from spraylab.errors import ParamError

FLAGS = ("scalar", "isotropic", "constant", "berwald", "projective_form",
         "weak_isotropic")


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_classify_report_schema(tmp_path):
    code, data = run(["classify", "ex7.1", "--points", "6"], tmp_path)
    assert code == 0
    for key in ("command", "config", "sampling", "points", "classification",
                "verdict", "identities"):
        assert key in data
    assert data["config"]["seed"] == 7
    assert data["config"]["points"] == 6
    assert set(data["classification"]) == set(FLAGS)
    for flag in FLAGS:
        entry = data["classification"][flag]
        assert isinstance(entry["value"], bool)
        assert "residual" in entry
    assert data["verdict"]["outcome"] == "metrizable_with_metric"
    assert data["verdict"]["rule"] == "omega exact; L = R/lambda"
    assert "recovered_metric" in data["verdict"]
    assert data["verdict"]["recovered_metric"]["sample_values"]
    row = data["points"][0]
    assert len(row["point"]) == 4 and len(row["G"]) == 2
    assert row["scalar_split"] is True and "R" in row and "tau" in row
    for name in ("curvature_contraction", "bianchi", "tau_trace",
                 "chi_consistency"):
        assert data["identities"][name] < 1e-8
    assert data["fixture"] == {"name": "ex7.1", "compared": True, "diffs": []}


def test_a_long_sum_classifies(tmp_path):
    # 1,200 terms nest deeper than Python's frame limit
    src = tmp_path / "long.spray"
    src.write_text("dim 2\nmetric L = y1^2 + y2^2" + " + 0.001*y1^2" * 1198 + "\n")
    code, data = run(["classify", str(src), "--points", "8"], tmp_path)
    assert code == 0 and data["sampling"]["used"] == 8
    assert data["verdict"]["outcome"] == "metrizable_locally"


def test_sampling_accounting_counts_rejections(tmp_path):
    # the ex7.2 guard carves a hole out of the tangent box, so some
    # candidates must be rejected and the report has to say how many
    code, data = run(["metrize", "ex7.2", "--points", "12"], tmp_path)
    assert code == 0
    acc = data["sampling"]
    assert acc["requested"] == 12
    assert acc["used"] >= 12
    assert acc["candidates"] == acc["used"] + acc["rejected"]
    assert acc["rejected"] > 0
    assert data["verdict"]["outcome"] == "not_metrizable"
    assert data["verdict"]["rule"] == "omega y-dependent"


def assert_one_bundle_per_block(tally, data, order: int = 4) -> None:
    """The report's samples were evaluated as the block bundles of
    `classify.blocks`, one each, built first and at `order`, and no other
    bundle, at a point or in a block, holds a sample."""
    points = [np.array(row["point"]).tobytes() for row in data["points"]]
    width = len(data["points"][0]["point"])
    blocks = [(len(block), width) for block in classify.blocks(points)]
    assert tally["blocks"][:len(blocks)] == blocks
    assert {k: c for k, c in tally["rows"].items() if k[0] in set(points)} == {
        (pt, order): 1 for pt in points}
    assert not any(pt in set(points) for pt, _ in tally["bundles"])


@pytest.mark.parametrize("command,name,points", [
    ("classify", "flat", 64),
    ("metrize", "nonscalar3", 66),
    ("oracle", "ex7.3", 64),
    # the metric candidates L = R/lambda and Ric/(n-1), whose jets at the
    # samples are truncations of the report's order-4 block bundles
    ("metrize", "ex7.1", 64),
    ("metrize", "ex7.3", 64),
], ids=["classify-flat-64", "metrize-nonscalar3-66", "oracle-ex7.3-64",
        "metrize-ex7.1-64", "metrize-ex7.3-64"])
def test_one_draw_and_one_bundle_per_point(command, name, points, tmp_path,
                                           tally):
    # classification, survey and verdict share the classification's draw
    # and its block bundles, so each point has one bundle, its block's; the
    # oracle's survey and its jets-vs-FD table share them too
    code, data = run([command, name], tmp_path)
    assert code == 0 and data["sampling"]["used"] == points
    assert tally["draws"] == 1
    assert_one_bundle_per_block(tally, data)
    # every reader of the scalar split shares each block's one split
    assert set(tally["splits"].values()) == {1}
    assert len(tally["splits"]) == len(classify.blocks(range(points)))


@pytest.mark.parametrize("name,order", [
    *[(name, 4) for name in corpus.fixture_names()], ("ex7.1", 5)])
def test_the_only_bundle_at_a_sample_is_its_report_row(name, order, tmp_path,
                                                       tally):
    # classification, survey, verdict, metric candidates and re-verification
    # all read the one block bundle of the report that each sample is a row
    # of
    code, data = run(["metrize", name, "--order", str(order)], tmp_path)
    assert code == 0
    assert_one_bundle_per_block(tally, data, order)


@pytest.mark.parametrize("command,name,points,width", [
    # the 66 samples of a dim-3 expression spray: one block
    ("classify", "nonscalar3", 66, 6),
    # the spray of an expression metric, through classification, survey,
    # verdict and the metric candidate
    ("metrize", "elliptic2", 64, 4),
], ids=["classify-nonscalar3-66", "metrize-elliptic2-64"])
def test_samples_are_evaluated_in_blocks(command, name, points, width,
                                         tmp_path, tally):
    code, data = run([command, name], tmp_path)
    assert code == 0 and data["sampling"]["used"] == points
    # no block fell back to one-row block bundles
    blocks = [(len(block), width) for block in classify.blocks(range(points))]
    assert tally["blocks"] == blocks


@pytest.mark.parametrize("name,requested,points", [
    ("ex7.1", 64, 64), ("nonscalar3", 64, 66),
    # two full blocks and one of two rows
    ("nonscalar3", 256, 258)],
    ids=["ex7.1-64", "nonscalar3-66", "nonscalar3-258"])
def test_survey_takes_identities_once_per_block(name, requested, points,
                                                monkeypatch):
    # the survey asks for the identities of each block bundle once, at its
    # first row, and each row reads its own dict from that call; no row
    # takes its own, as it would after its block's call raised
    calls = []
    identity_residuals = geometry.identity_residuals

    def counting(b, tol=cli.TOL):
        calls.append(b._pa.ndim)  # 2 at a block bundle
        return identity_residuals(b, tol)

    monkeypatch.setattr(geometry, "identity_residuals", counting)
    report = cli.cmd_classify(cli.RunConfig(input=name, seed=7,
                                            points=requested))
    assert report.data["sampling"]["used"] == points
    assert calls == [2] * len(classify.blocks(range(points)))


def test_oracle_drops_each_block_before_building_the_next(tmp_path, monkeypatch):
    # nonscalar3 at --points 256 is three blocks of samples.  The command
    # streams them: when a block bundle is built, and when a later block is
    # split, no block read before is referred to any more
    blocks, alive = [], []
    init = geometry.CurvatureBundle.__init__
    decompose_scalar = classify.decompose_scalar

    def earlier_blocks_alive():
        gc.collect()
        return [ref() is not None for ref in blocks[:-1]]

    def tracked_init(b, spray, p, order=4):
        init(b, spray, p, order)
        if b._pa.ndim == 2:
            blocks.append(weakref.ref(b))
            alive.append(("built", earlier_blocks_alive()))

    def tracked_decompose(b, tol=cli.TOL):
        if b._pa.ndim == 2:
            alive.append(("split", earlier_blocks_alive()))
        return decompose_scalar(b, tol)

    monkeypatch.setattr(geometry.CurvatureBundle, "__init__", tracked_init)
    monkeypatch.setattr(classify, "decompose_scalar", tracked_decompose)
    code, data = run(["oracle", "nonscalar3", "--points", "256"], tmp_path)
    assert code == 0 and data["sampling"]["used"] == 258
    assert len(blocks) == len(classify.blocks(range(258))) == 3
    assert alive == [(event, [False] * k) for k in range(3)
                     for event in ("built", "split")]


def test_quadrature_builds_one_bundle_per_run_of_lambda_targets(tmp_path, tally):
    # ex7.1 recovers L = R/lambda.  Its 64 samples are classified in the
    # blocks of `classify.blocks`; then lambda is integrated to the x of
    # each of its 16 bases in one request, whose 64-node segments are
    # evaluated in runs of whole targets of at most RUN_NODES nodes, one
    # block bundle per run, not one per target.
    code, data = run(["metrize", "ex7.1"], tmp_path)
    assert code == 0
    assert data["verdict"]["rule"] == "omega exact; L = R/lambda"
    assert tally["draws"] == 1
    assert tally["lambda_targets"] == 16
    per = metrize.RUN_NODES // 64
    classification = [(len(block), 4) for block in classify.blocks(range(64))]
    quadrature = [(64 * min(per, 16 - lo), 4) for lo in range(0, 16, per)]
    assert len(quadrature) == -(-16 * 64 // metrize.RUN_NODES) < 16
    assert tally["blocks"] == classification + quadrature


def test_ex7_5_seed_4_classifies(tmp_path):
    # one sample there has a tangent so short that G and y pass the
    # pointwise proportionality test, while the spray as a whole is not in
    # projective form; the closed-factor self-check must not fire
    code, data = run(["classify", "ex7.5", "--seed", "4"], tmp_path)
    assert code == 0
    assert data["classification"]["projective_form"]["value"] is False
    assert data["fixture"]["diffs"] == []


def test_json_is_byte_identical_across_runs(tmp_path):
    args = ["classify", "ex7.4", "--points", "6"]
    code1, _ = run(args, tmp_path, "a.json")
    code2, _ = run(args, tmp_path, "b.json")
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_json_goes_to_stdout_human_to_stderr(capsys):
    code = cli.main(["classify", "flat", "--points", "4"])
    assert code == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["command"] == "classify"
    assert "classify flat" in captured.err
    assert "verdict" in captured.err


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SPRAYLAB_SEED", "11")
    code, data = run(["classify", "flat", "--points", "4"], tmp_path)
    assert code == 0 and data["config"]["seed"] == 11
    code, data = run(["classify", "flat", "--points", "4", "--seed", "3"],
                     tmp_path, "b.json")
    assert code == 0 and data["config"]["seed"] == 3


def test_bad_inputs_exit_one(tmp_path, capsys):
    assert cli.main(["classify", "no_such_fixture", "--points", "4"]) == 1
    assert "neither a readable file nor a known fixture" in capsys.readouterr().err
    assert cli.main(["classify", "flat", "--const", "oops"]) == 1
    assert cli.main(["classify", "flat", "--points", "0"]) == 1
    assert cli.main(["classify", "flat", "--box", "1", "0", "0", "1"]) == 1
    assert cli.main(["classify"]) == 1  # missing input
    monkey_env = tmp_path / "x.spray"
    monkey_env.write_text("dim 2\nspray G1 = y3\n")  # y3 out of range
    assert cli.main(["classify", str(monkey_env)]) == 1


@pytest.mark.parametrize("args, reason", [
    (["classify", "flat", "--seed", "-1"], "seed must be >= 0"),
    (["classify", "flat", "--tol-abs", "nan"],
     "tol_abs must be positive and finite"),
    (["classify", "flat", "--tol-rel", "inf"],
     "tol_rel must be positive and finite"),
    (["oracle", "flat", "--fd-step", "inf"],
     "fd_step must be positive and finite"),
    (["classify", "flat", "--box", "0", "inf", "0", "1"], "must be finite"),
    (["metrize", "ex7.3", "--const", "c=nan"],
     "const override for c is not a finite number"),
    (["metrize", "ex7.3", "--const", "c=inf"],
     "const override for c is not a finite number"),
], ids=["negative-seed", "nan-tol-abs", "inf-tol-rel", "inf-fd-step",
        "inf-box", "nan-const", "inf-const"])
def test_config_refused_up_front(args, reason, tmp_path, capsys):
    # each of these used to run: to a numpy traceback, to wrong flags, or
    # to a report judged against an infinite tolerance
    code, data = run(args + ["--points", "4"], tmp_path)
    assert code == 1 and data is None
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "metrize", "oracle"])
@pytest.mark.parametrize("points", [cli.MAX_POINTS + 1, 10**20])
def test_points_above_the_cap_are_refused_before_sampling(command, points, tmp_path,
                                                          capsys, monkeypatch):
    # 10**20 points once reached np.empty in sample_points and ended in an
    # uncaught "Maximum allowed dimension exceeded"
    def no_draw(*args, **kw):
        raise AssertionError("a refused count must draw nothing")

    monkeypatch.setattr(sampling, "sample_points", no_draw)
    code, data = run([command, "flat", "--points", str(points)], tmp_path)
    assert code == 1 and data is None
    assert f"points must be <= {cli.MAX_POINTS}, got {points}" in capsys.readouterr().err
    with pytest.raises(ParamError, match="keeps the curvature bundle of every sample"):
        cli.RunConfig(points=points)


def test_negative_seed_env_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("SPRAYLAB_SEED", "-1")
    assert cli.main(["classify", "flat", "--points", "4"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("SPRAYLAB_SEED", "pi")
    assert cli.main(["classify", "flat", "--points", "4"]) == 1
    assert "SPRAYLAB_SEED" in capsys.readouterr().err


def test_unsatisfiable_guard_exits_two(tmp_path, capsys):
    src = tmp_path / "walled.spray"
    src.write_text("dim 2\nspray G1 = 0\nspray G2 = 0\nguard = -1\n")
    assert cli.main(["classify", str(src), "--points", "4"]) == 2
    assert "sampling exhausted" in capsys.readouterr().err


def test_fixture_mismatch_exits_three(tmp_path, monkeypatch):
    real = corpus.load_fixture("ex7.1")
    wrong = dict(real.flags)
    wrong["constant"] = True  # ex7.1 is not of constant curvature
    doctored = dataclasses.replace(real, flags=wrong)
    monkeypatch.setattr(cli.corpus, "load_fixture", lambda name: doctored)
    code, data = run(["classify", "ex7.1", "--points", "6"], tmp_path)
    assert code == 3
    assert data["fixture"]["diffs"]
    assert "constant" in data["fixture"]["diffs"][0]


def test_const_override_skips_fixture_comparison(tmp_path):
    code, data = run(["classify", "ex7.3", "--points", "6",
                      "--const", "c=3"], tmp_path)
    assert code == 0
    assert data["fixture"]["compared"] is False
    assert data["classification"]["constant"]["value"] is False


def test_metrize_file_path_with_const(tmp_path):
    path = "src/spraylab/fixtures/ex7_3.spray"
    code, data = run(["metrize", path, "--points", "6", "--const", "c=2"],
                     tmp_path)
    assert code == 0
    assert data["verdict"]["outcome"] == "metrizable_with_metric"
    assert data["verdict"]["rule"] == "L = Ric/(n-1)"
    assert "fixture" not in data  # file inputs are not compared
    vals = data["verdict"]["recovered_metric"]["sample_values"]
    for entry in vals:
        x1, x2, y1, y2 = entry["point"]
        want = -4.0 * (y1**2 + y2**2) / (1.0 - x1**2 - x2**2) ** 2
        assert entry["value"] == pytest.approx(want, rel=1e-8)


def test_metrize_out_of_scope_spray(tmp_path):
    code, data = run(["metrize", "nonscalar3", "--points", "6"], tmp_path)
    assert code == 0
    assert data["verdict"]["outcome"] == "inconclusive"
    assert data["verdict"]["rule"] == "not of scalar curvature"
    assert "outside" in data["verdict"]["evidence"]["note"]


def test_gen_pflat_round_trip(tmp_path):
    out = tmp_path / "gen"
    code, data = run(["gen-pflat", "--A", "1,0,0,1", "--B", "0,0",
                      "--C", "1", "--dir", str(out), "--name", "disk",
                      "--points", "6"], tmp_path)
    assert code == 0
    assert (out / "disk_spray.spray").exists()
    assert (out / "disk_metric.spray").exists()
    assert data["generated"]["admissible"]["value"] is True
    assert data["roundtrip"]["spray_match"] < 1e-8
    assert data["roundtrip"]["ric_identity"] < 1e-8
    assert data["classification"]["constant"]["value"] is True
    assert data["verdict"]["outcome"] in ("metrizable_with_metric",
                                          "metrizable_locally")
    # and the generated file is itself a usable input
    code2, data2 = run(["classify", str(out / "disk_spray.spray"),
                        "--points", "6"], tmp_path, "replay.json")
    assert code2 == 0
    assert data2["classification"]["constant"]["value"] is True


DEFAULT_BOX = [-0.8, 0.8, -1.0, 1.0]


def drawn_points(spray, box, count=8, seed=7) -> list:
    return sampling.draw(spray, count=count, seed=seed, box=box).points().tolist()


@pytest.mark.parametrize("command", ["classify", "metrize", "oracle"])
def test_box_precedence_between_flag_and_fixture(command, tmp_path):
    # without --box, cms19's own box wins; --box wins even when it spells
    # the default's values; the config echo shows the default box when no
    # box is given
    fixture = corpus.load_fixture("cms19")
    spray = fixture.build()
    assert fixture.box is not None and fixture.box != sampling.SampleBox()
    _, plain = run([command, "cms19", "--points", "8"], tmp_path)
    assert plain["config"]["box"] == DEFAULT_BOX
    assert [row["point"] for row in plain["points"]] == drawn_points(spray, fixture.box)
    _, flagged = run([command, "cms19", "--points", "8", "--box",
                      *map(str, DEFAULT_BOX)], tmp_path, "flagged.json")
    assert flagged["config"]["box"] == DEFAULT_BOX
    assert [row["point"] for row in flagged["points"]] == \
        drawn_points(spray, sampling.SampleBox())


def test_gen_pflat_samples_in_the_box_flag(tmp_path):
    box = [-0.5, 0.3, 0.2, 0.9]
    spray = pflat.gen_spray(pflat.QuadraticData.from_mapping(
        {"A": [1.0, 0.0, 0.0, 1.0], "B": [0.0, 0.0], "C": 1.0}))
    args = ["gen-pflat", "--A", "1,0,0,1", "--B", "0,0", "--C", "1",
            "--dir", str(tmp_path / "gen"), "--points", "8"]
    code, plain = run(args, tmp_path)
    assert code == 0 and plain["config"]["box"] == DEFAULT_BOX
    assert [row["point"] for row in plain["points"]] == \
        drawn_points(spray, sampling.SampleBox())
    code, flagged = run(args + ["--box", *map(str, box)], tmp_path, "flagged.json")
    assert code == 0 and flagged["config"]["box"] == box
    assert [row["point"] for row in flagged["points"]] == \
        drawn_points(spray, sampling.SampleBox(*box))


def test_config_box_is_none_without_the_flag():
    cfg = cli.RunConfig()
    assert cfg.box is None
    assert cfg.sample_box == sampling.SampleBox()
    assert cfg.echo()["box"] == DEFAULT_BOX
    assert cli.RunConfig(box=(0, 1, 0, 1)).echo()["box"] == [0.0, 1.0, 0.0, 1.0]


def test_gen_pflat_inadmissible_still_reports(tmp_path):
    # 4C equals B'A^{-1}B here, so the metric side degenerates
    out = tmp_path / "gen"
    code, data = run(["gen-pflat", "--A", "1,0,0,1", "--B", "2,0",
                      "--C", "1", "--dir", str(out), "--points", "6"],
                     tmp_path)
    assert code == 0
    assert data["generated"]["admissible"]["value"] is False
    assert data["roundtrip"] is None


def test_gen_pflat_rejects_ragged_matrix():
    assert cli.main(["gen-pflat", "--A", "1,0,0", "--B", "0,0",
                     "--C", "1"]) == 1
    assert cli.main(["gen-pflat", "--A", "1,0,0,x", "--B", "0,0",
                     "--C", "1"]) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["A", "B", "C"])
def test_gen_pflat_rejects_non_finite_data_before_writing(tmp_path, capsys, field, bad):
    # non-finite data once gave unparseable .spray files, then a parse
    # error in them or an SVD that did not converge
    data = {"A": "1,0,0,1", "B": "0,0", "C": "1"}
    data[field] = {"A": f"1,0,0,{bad}", "B": f"0,{bad}", "C": bad}[field]
    out = tmp_path / "gen"
    out.mkdir()
    code = cli.main(["gen-pflat", *(f"--{k}={v}" for k, v in data.items()),
                     "--dir", str(out), "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
    assert list(out.iterdir()) == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("A", ["1e308,0,0,1e308", "1,-1.5e308,-1.5e308,1"])
def test_gen_pflat_rejects_data_whose_doubled_A_overflows(tmp_path, capsys, A):
    # the spray text holds 2A: near the float maximum it once overflowed to
    # inf, and gen-pflat failed to parse the files it had written
    out = tmp_path / "gen"
    out.mkdir()
    code = cli.main(["gen-pflat", f"--A={A}", "--B=0,0", "--C=1", "--dir", str(out),
                     "--out", str(tmp_path / "report.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: A is too large: 2A, which the spray text holds, "
                          "overflows")
    assert "Warning" not in err
    assert list(out.iterdir()) == []
    assert not (tmp_path / "report.json").exists()


def test_oracle_agreement(tmp_path):
    code, data = run(["oracle", "ex7.1", "--points", "4"], tmp_path)
    assert code == 0
    assert set(data["oracle"]) == {"R", "chi", "B"}
    for entry in data["oracle"].values():
        assert entry["ok"] is True
        assert entry["max_err"] <= entry["worst_tol"]


def test_help_and_usage_exit_codes(capsys):
    assert cli.main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out
    assert cli.main([]) == 1  # subcommand is required
    capsys.readouterr()


def test_one_parser_serves_every_call_of_main(tmp_path, capsys):
    # the parser is built once per process, so nothing one call parses may
    # reach the next: a --const, then none; a bad argv and --help keep
    # their exit codes in between
    assert cli._build_parser() is cli._build_parser()
    code, data = run(["classify", "ex7.3", "--points", "6", "--const", "c=3"],
                     tmp_path)
    assert code == 0 and data["config"]["consts"] == {"c": 3.0}
    code, data = run(["classify", "ex7.3", "--points", "6"], tmp_path, "b.json")
    assert code == 0 and data["config"]["consts"] == {}
    assert data["fixture"]["compared"] is True
    assert cli.main(["classify", "ex7.3", "--points", "six"]) == 1
    assert cli.main(["--help"]) == 0
    assert cli.main(["classify", "--help"]) == 0
    capsys.readouterr()
    code, data = run(["classify", "ex7.3", "--points", "6"], tmp_path, "c.json")
    assert code == 0 and data["config"]["consts"] == {}
    assert data["config"]["points"] == 6 and data["fixture"]["compared"] is True


def test_order_below_minimum_is_rejected_up_front(tmp_path, capsys):
    # order 3 leaves the curvature 3-tensor at order 0, so the survey could
    # not differentiate it; the config is refused before any work is done
    code, data = run(["classify", "flat", "--order", "3"], tmp_path)
    err = capsys.readouterr().err
    assert code == 1 and data is None
    assert f"order must be >= {cli.MIN_ORDER}" in err
    assert "jet order exhausted" not in err
    with pytest.raises(ParamError, match="order must be >= 4"):
        cli.RunConfig(order=2)
    assert cli.RunConfig(order=cli.MIN_ORDER).order == 4


def test_oracle_singular_metric_on_the_stencil_is_refused(tmp_path, capsys):
    # at --fd-step 0.3 a stencil row of the cms20 metric spray lands where
    # its fundamental tensor is singular; that used to end in a raw
    # numpy LinAlgError traceback
    code, data = run(["oracle", "cms20", "--fd-step", "0.3"], tmp_path)
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "singular" in err


EDGE = """
dim 2
spray G1 = y1^2 * sqrt(x1 + 0.5)
spray G2 = y2^2 * sqrt(x1 + 0.5)
guard = x1 + 0.45
"""


def test_oracle_step_leaving_the_domain_is_refused(tmp_path, capsys):
    # the sample points keep x1 > -0.45, but the Richardson stencil at
    # twice --fd-step reaches x1 < -0.5, where G is NaN; the table used
    # to report those comparisons as ok
    src = tmp_path / "edge.spray"
    src.write_text(EDGE)
    code, data = run(["oracle", str(src), "--fd-step", "0.1"], tmp_path)
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "leaves the spray's domain" in err


@pytest.mark.parametrize("step", ["1e-120", "1e+200"])
def test_oracle_step_outside_float_range_is_refused(step, tmp_path, capsys):
    # h^3 underflowed to zero (ZeroDivisionError) or overflowed
    # (OverflowError) while the stencil weights were built
    code, data = run(["oracle", "flat", "--fd-step", step, "--points", "4"],
                     tmp_path)
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of range" in err


# -- the JSON writer -----------------------------------------------------------

TEXTS = st.one_of(st.text(max_size=12),
                  st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028",
                                   "caf\u00e9", "\U0001f600", "", "a/b", "\ud800"]))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 1e16, -1e16, 5e-324, 1e-7, 1.5e300, 0.1]))
SCALARS = st.one_of(FLOATS, st.integers(), st.sampled_from([2**100, -2**70, 0, -1]),
                    st.booleans(), st.none(), TEXTS)


def reports(leaves=SCALARS):
    """JSON-safe trees: str-keyed dicts, lists of floats alone, and lists
    that mix floats with other values."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(FLOATS, max_size=6),
                                st.dictionaries(TEXTS, inner, max_size=5)),
        max_leaves=40)


def json_dumps_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(reports())
def test_json_writer_equals_json_dumps(tree) -> None:
    assert cli.Report(data=tree, human=()).json_bytes() == json_dumps_bytes(tree)


NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
RAW_FLOATS = st.one_of(FLOATS, NON_FINITE)


class Opaque:
    """A value the writer knows nothing of."""


RAW_SCALARS = st.one_of(
    SCALARS, NON_FINITE,
    RAW_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.builds(Opaque))
RAW_ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
               elements=RAW_FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=1, max_side=3)))
KEYS = st.one_of(TEXTS, st.integers(-3, 3), st.sampled_from([0.5, None, (1, "a"), "1", "None"]))


def raw_reports():
    """Report values as commands build them: numpy scalars and arrays,
    tuples, non-str keys, non-finite floats (as a scalar, in a float list,
    in a mixed list and in a dict) and objects of other types."""
    return st.recursive(
        st.one_of(RAW_SCALARS, RAW_ARRAYS),
        lambda inner: st.one_of(st.lists(inner, max_size=5),
                                st.lists(RAW_FLOATS, max_size=6),
                                st.lists(inner, max_size=4).map(tuple),
                                st.dictionaries(KEYS, inner, max_size=5)),
        max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw_reports())
def test_json_writer_equals_json_dumps_of_the_coerced_copy(raw) -> None:
    assert cli.Report(data=raw, human=()).json_bytes() == json_dumps_bytes(loop_jsonable(raw))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", ["scalar", "float list", "mixed list", "in a dict"])
def test_json_writer_writes_non_finite_floats_as_null(bad, shape) -> None:
    tree, want = {"scalar": (bad, None),
                  "float list": ([1.0, bad, 2.0], [1.0, None, 2.0]),
                  "mixed list": ([1, bad], [1, None]),
                  "in a dict": ({"a": [0.5], "b": bad}, {"a": [0.5], "b": None})}[shape]
    for raw in (tree, np.float64(bad)) if shape == "scalar" else (tree,):
        assert cli.Report(data=raw, human=()).json_bytes() == json_dumps_bytes(want)

