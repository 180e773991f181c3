"""End-to-end runs of the command line driver."""

import dataclasses
import json

import numpy as np
import pytest

from spraylab import classify, cli, corpus, geometry
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


@pytest.mark.parametrize("command,name,points", [
    ("classify", "flat", 64),
    ("metrize", "nonscalar3", 66),
    ("oracle", "ex7.3", 64),
    # the metric candidates L = R/lambda and Ric/(n-1), whose jets at the
    # samples are truncations of the report's order-4 bundles
    ("metrize", "ex7.1", 64),
    ("metrize", "ex7.3", 64),
], ids=["classify-flat-64", "metrize-nonscalar3-66", "oracle-ex7.3-64",
        "metrize-ex7.1-64", "metrize-ex7.3-64"])
def test_one_draw_and_one_bundle_per_point(command, name, points, tmp_path,
                                           tally):
    # classification, survey and verdict share the classification's draw
    # and its bundles; the oracle's survey and its jets-vs-FD table share
    # one bundle per point
    code, data = run([command, name], tmp_path)
    assert code == 0 and data["sampling"]["used"] == points
    assert tally["draws"] == 1
    assert len(tally["bundles"]) == points
    assert set(tally["bundles"].values()) == {1}
    assert {order for _, order in tally["bundles"]} == {4}
    # every reader of the scalar split shares the bundle's one split
    assert tally["splits"] == tally["bundles"]


@pytest.mark.parametrize("name,order", [
    *[(name, 4) for name in corpus.fixture_names()], ("ex7.1", 5)])
def test_the_only_bundle_at_a_sample_is_its_report_row(name, order, tmp_path,
                                                       tally):
    # classification, survey, verdict, metric candidates and re-verification
    # all read the one row bundle each sample gets from its block
    code, data = run(["metrize", name, "--order", str(order)], tmp_path)
    assert code == 0
    points = [np.array(row["point"]).tobytes() for row in data["points"]]
    assert sum(rows for rows, _ in tally["row_blocks"]) == len(points)
    for pt in points:
        built = {k: c for k, c in tally["bundles"].items() if k[0] == pt}
        assert built == {(pt, order): 1}, name


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
    blocks = [(len(block), width) for block in classify.blocks(range(points))]
    assert tally["blocks"] == blocks
    # no block fell back to building its samples one at a time
    assert tally["row_blocks"] == blocks


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
        calls.append(b.point)  # None at a block bundle
        return identity_residuals(b, tol)

    monkeypatch.setattr(geometry, "identity_residuals", counting)
    report = cli.cmd_classify(cli.RunConfig(input=name, seed=7,
                                            points=requested))
    assert report.data["sampling"]["used"] == points
    assert calls == [None] * len(classify.blocks(range(points)))


def test_quadrature_builds_one_bundle_per_lambda_target(tmp_path, tally):
    # ex7.1 recovers L = R/lambda.  Its 64 samples are classified in the
    # blocks of `classify.blocks`; then each point that lambda is
    # integrated to costs one more block bundle, holding the 64 nodes of
    # its segment.
    code, data = run(["metrize", "ex7.1"], tmp_path)
    assert code == 0
    assert data["verdict"]["rule"] == "omega exact; L = R/lambda"
    assert tally["draws"] == 1
    assert tally["lambda_targets"] > 0
    classification = [(len(block), 4) for block in classify.blocks(range(64))]
    quadrature = [(64, 4)] * tally["lambda_targets"]
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
