"""Command-line front end: classify, metrize, gen-pflat, oracle.

Each command reads a problem (a .spray file path or a named corpus fixture),
samples it deterministically, and emits one JSON report plus a short human
summary.  `classify`, `metrize` and `gen-pflat` draw their samples once, in
the classification; the per-point survey and the verdict read that
classification's bundles.  The JSON goes to stdout, or to --out PATH; the
human lines go to whichever stream the JSON is not using, so scripts can
always pipe the JSON.

Identical configuration (including the seed) produces byte-identical JSON.
The default seed is 7 and can be overridden by the SPRAYLAB_SEED environment
variable; an explicit --seed beats both.

Exit codes: 0 ok; 1 parse or configuration error; 2 sampling exhausted;
3 the run disagrees with a fixture's recorded expectations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, corpus, dsl, geometry, metrize, oracle, pflat, sampling
from .errors import ParamError, SamplingError, SprayLabError, UnknownFixture
from .sampling import SampleBox, SampleSet, Tolerances
# bound here as well so that perfbench's tracer, which patches every
# spraylab module holding sample_points by name, covers this module too
from .sampling import sample_points  # noqa: F401

__all__ = [
    "RunConfig",
    "Report",
    "cmd_classify",
    "cmd_metrize",
    "cmd_gen_pflat",
    "cmd_oracle",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SAMPLING = 2
EXIT_FIXTURE = 3

# The smallest jet order every command can run at: the identity survey takes
# the horizontal derivative of V_k = R^m_{km}, whose jets sit three orders
# below those of the spray coefficients, and a derivative needs order >= 1.
MIN_ORDER = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by every command."""

    input: str = ""
    points: int = 64
    seed: int = 7
    order: int = 4
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6
    fd_step: float = 1e-3
    out: str = ""
    box: tuple = (-0.8, 0.8, -1.0, 1.0)
    consts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points < 1:
            raise ParamError(f"points must be >= 1, got {self.points}")
        if self.order < MIN_ORDER:
            raise ParamError(
                f"order must be >= {MIN_ORDER}, got {self.order}: the "
                "identity survey differentiates the curvature 3-tensor, whose "
                f"jets sit three orders below the spray's")
        if self.seed < 0:
            raise ParamError(f"seed must be >= 0, got {self.seed}: the "
                             "sampler takes non-negative seeds only")
        for name in ("tol_abs", "tol_rel", "fd_step"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ParamError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if len(self.box) != 4:
            raise ParamError("box needs four numbers: x_lo x_hi y_lo y_hi")
        if not all(math.isfinite(v) for v in self.box):
            raise ParamError(f"sample box {self.box} must be finite")
        if not (self.box[0] < self.box[1] and self.box[2] < self.box[3]):
            raise ParamError(f"empty sample box {self.box}")

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(abs=self.tol_abs, rel=self.tol_rel)

    @property
    def sample_box(self) -> SampleBox:
        return SampleBox(*(float(v) for v in self.box))

    def echo(self) -> dict:
        return {
            "input": self.input,
            "points": self.points,
            "seed": self.seed,
            "order": self.order,
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "fd_step": self.fd_step,
            "box": [float(v) for v in self.box],
            "consts": {k: float(v) for k, v in sorted(self.consts.items())},
        }


@dataclass(frozen=True)
class Report:
    """One command's outcome: the JSON payload plus printable lines.

    `mismatches` is nonempty only when a fixture comparison failed; the
    process exit code keys off it."""

    data: dict
    human: tuple
    mismatches: tuple = ()

    def json_bytes(self) -> bytes:
        return (json.dumps(self.data, indent=2, sort_keys=True,
                           allow_nan=False) + "\n").encode()


def _jsonable(obj):
    """Coerce report values to deterministic JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if obj is None or isinstance(obj, str):
        return obj
    # anything richer (recovered metrics, quadrature tables) is summarized
    # by type only; reprs carry addresses and would break byte-determinism
    return f"<{type(obj).__name__}>"


# -- problem loading ---------------------------------------------------------


def _resolve(cfg: RunConfig):
    """Input path or fixture name -> (ProblemDef, fixture or None, box)."""
    path = Path(cfg.input)
    if path.exists():
        text = path.read_text()
        fixture = None
        name = path.stem
    else:
        try:
            fixture = corpus.load_fixture(cfg.input)
        except UnknownFixture:
            raise ParamError(
                f"input {cfg.input!r} is neither a readable file nor a known "
                f"fixture (known: {', '.join(corpus.fixture_names())})")
        text = fixture.source
        name = fixture.name
    problem = dsl.parse(text, consts=cfg.consts or None, name=name)
    return problem, fixture


def _pick_box(cfg: RunConfig, fixture, box_flagged: bool) -> SampleBox:
    """Fixture boxes win unless the user asked for a box explicitly."""
    if fixture is not None and fixture.box is not None and not box_flagged:
        return fixture.box
    return cfg.sample_box


def _accounting(cfg: RunConfig, samples: SampleSet) -> dict:
    return {
        "requested": cfg.points,
        "used": samples.count,
        "candidates": samples.candidates,
        "rejected": samples.rejected,
    }


def _surveyed(triples, tol: Tolerances, rows: list, identities: dict):
    """Summarize each (point, bundle, decomposition) triple into `rows` and
    the aggregated identity table, then pass its bundle on.  `triples` may
    be a generator; each bundle is summarized once and not kept."""
    for pt, b, dec in triples:
        row = {
            "point": [float(v) for v in pt],
            "G": _jsonable(b.G_values),
            "Ric": float(b.Ric_value),
            "scalar_split": bool(dec.holds),
        }
        if dec.holds:
            row["R"] = float(dec.R)
            row["tau"] = _jsonable(dec.tau)
        rows.append(row)
        for name, res in geometry.identity_residuals(b, tol=tol).items():
            identities[name] = max(identities.get(name, 0.0), float(res))
        yield b


def _survey(triples, tol: Tolerances):
    """Per-point summaries plus the identity table, as `_surveyed` makes."""
    rows: list = []
    identities: dict = {}
    for _ in _surveyed(triples, tol, rows, identities):
        pass
    return rows, identities


def _classification_json(rep) -> dict:
    return {
        flag: {"value": bool(rep.flags[flag]),
               "residual": _jsonable(rep.residuals.get(flag))}
        for flag in rep.flags
    }


def _verdict_json(v, samples) -> dict:
    out = {
        "outcome": v.outcome,
        "rule": v.rule,
        "residual": _jsonable(v.residual),
        "evidence": _jsonable(v.evidence),
    }
    if v.recovered_metric is not None:
        pts = samples.points()
        out["recovered_metric"] = {
            "name": getattr(v.recovered_metric, "name",
                            type(v.recovered_metric).__name__),
            "sample_values": [
                {"point": [float(x) for x in pt],
                 "value": float(v.recovered_metric.value(pt))}
                for pt in pts[: min(6, len(pts))]
            ],
        }
    return out


def _fixture_diff(fixture, cfg: RunConfig, rep, verdict) -> dict | None:
    """Compare a run against recorded expectations (flags + verdict)."""
    if fixture is None:
        return None
    if cfg.consts:
        return {"name": fixture.name, "compared": False,
                "reason": "const overrides change the problem"}
    return {"name": fixture.name, "compared": True,
            "diffs": fixture.diffs(rep, verdict)}


def _decision(spray, cfg: RunConfig, box: SampleBox, tol: Tolerances):
    """Classify once, then route and survey that classification.

    Returns (report, verdict, the JSON blocks the three deciding commands
    share)."""
    rep = classify.classify_spray(spray, count=cfg.points, seed=cfg.seed,
                                  box=box, order=cfg.order, tol=tol)
    verdict = metrize.route(spray, rep, tol=tol)
    rows, identities = _survey(rep.triples, tol)
    return rep, verdict, {
        "sampling": _accounting(cfg, rep.samples),
        "points": rows,
        "classification": _classification_json(rep),
        "verdict": _verdict_json(verdict, rep.samples),
        "identities": identities,
    }


def _flag_lines(rep) -> list:
    out = []
    for flag, value in rep.flags.items():
        res = rep.residuals.get(flag)
        shown = "   -" if res is None or not np.isfinite(res) else f"{res:.2e}"
        out.append(f"  {flag:<16} {str(bool(value)).lower():<5} "
                   f"residual {shown}")
    return out


# -- commands ----------------------------------------------------------------


def _decide_command(command: str, headline, cfg: RunConfig,
                    box_flagged: bool) -> Report:
    """The body of `classify` and `metrize`: they differ only in the
    report's "command" field and in the human lines `headline` gives."""
    problem, fixture = _resolve(cfg)
    spray = geometry.spray_of(problem)
    rep, verdict, blocks = _decision(spray, cfg,
                                     _pick_box(cfg, fixture, box_flagged),
                                     cfg.tolerances)
    fdiff = _fixture_diff(fixture, cfg, rep, verdict)
    data = {"command": command, "config": cfg.echo(), **blocks}
    if fdiff is not None:
        data["fixture"] = fdiff

    human = headline(problem.name or cfg.input, spray, cfg, rep, verdict)
    mism = tuple(fdiff["diffs"]) if fdiff and fdiff.get("compared") else ()
    if fdiff and fdiff.get("compared"):
        human.append(f"  fixture {fixture.name}: "
                     + ("expectations matched" if not mism
                        else f"{len(mism)} mismatch(es)"))
        human += [f"    {d}" for d in mism]
    return Report(data=_jsonable(data), human=tuple(human), mismatches=mism)


def _classify_lines(name: str, spray, cfg: RunConfig, rep, verdict) -> list:
    human = [f"classify {name}: dim {spray.dim}, {rep.samples.count} points "
             f"(seed {cfg.seed}, {rep.samples.rejected} rejected)"]
    human += _flag_lines(rep)
    human.append(f"  verdict          {verdict.outcome} ({verdict.rule})")
    return human


def _metrize_lines(name: str, spray, cfg: RunConfig, rep, verdict) -> list:
    human = [f"metrize {name}: {verdict.outcome}",
             f"  rule: {verdict.rule}",
             f"  residual: {verdict.residual:.3e}"]
    if verdict.recovered_metric is not None:
        pt = rep.samples.points()[0]
        human.append(f"  recovered L at {[round(float(x), 3) for x in pt]}: "
                     f"{verdict.recovered_metric.value(pt):.9g}")
    return human


def cmd_classify(cfg: RunConfig, box_flagged: bool = False) -> Report:
    return _decide_command("classify", _classify_lines, cfg, box_flagged)


def cmd_metrize(cfg: RunConfig, box_flagged: bool = False) -> Report:
    return _decide_command("metrize", _metrize_lines, cfg, box_flagged)


def cmd_gen_pflat(q: pflat.QuadraticData, cfg: RunConfig,
                  directory: str = ".", name: str = "pflat_gen",
                  box_flagged: bool = False) -> Report:
    """Write the generated spray/metric pair and replay the round trip."""
    tol = cfg.tolerances
    spray_src, metric_src = pflat.sources(q)
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    spray_path = outdir / f"{name}_spray.spray"
    metric_path = outdir / f"{name}_metric.spray"
    spray_path.write_text(spray_src)
    metric_path.write_text(metric_src)

    adm = pflat.admissible(q, count=min(cfg.points, 32), seed=cfg.seed,
                           box=cfg.sample_box, tol=tol)
    spray = pflat.gen_spray(q)
    metric = pflat.gen_metric(q)
    n = q.dim

    rep, verdict, blocks = _decision(spray, cfg, cfg.sample_box, tol)

    roundtrip = None
    if adm.admissible:
        spray_match = ric_match = 0.0
        for pt, b, _, _, err in metrize.metric_spray_residuals(
                metric, rep.triples, parallel=False):
            spray_match = max(spray_match, err)
            ric_match = max(ric_match,
                            abs(b.Ric_value - (n - 1) * metric.value(pt)))
        roundtrip = {"spray_match": spray_match, "ric_identity": ric_match}

    data = {
        "command": "gen-pflat",
        "config": cfg.echo(),
        "generated": {
            "spray_path": str(spray_path),
            "metric_path": str(metric_path),
            "dim": n,
            "admissible": {"value": bool(adm.admissible), "mode": adm.mode,
                           "margin": float(adm.margin)},
        },
        "roundtrip": _jsonable(roundtrip),
        **blocks,
    }

    human = [f"gen-pflat: wrote {spray_path} and {metric_path}",
             f"  admissible: {bool(adm.admissible)} ({adm.mode}, "
             f"margin {adm.margin:.3e})"]
    if roundtrip is not None:
        human.append(f"  round trip: spray match {roundtrip['spray_match']:.3e}, "
                     f"Ric identity {roundtrip['ric_identity']:.3e}")
    else:
        human.append("  round trip skipped: the pair is not admissible, the "
                     "metric side is degenerate")
    human += _flag_lines(rep)
    human.append(f"  verdict          {verdict.outcome} ({verdict.rule})")
    return Report(data=_jsonable(data), human=tuple(human))


def cmd_oracle(cfg: RunConfig, box_flagged: bool = False) -> Report:
    problem, fixture = _resolve(cfg)
    spray = geometry.spray_of(problem)
    tol = cfg.tolerances
    box = _pick_box(cfg, fixture, box_flagged)

    samples = sampling.draw(spray, count=cfg.points, seed=cfg.seed, box=box)
    accounting = _accounting(cfg, samples)
    # one bundle per point, summarized and then compared against the finite
    # differences before the next is built
    rows: list = []
    identities: dict = {}
    triples = classify.point_bundles(spray, samples, cfg.order, tol)
    table = oracle.agreement_report(
        _surveyed(triples, tol, rows, identities), h=cfg.fd_step)

    data = {
        "command": "oracle",
        "config": cfg.echo(),
        "sampling": accounting,
        "points": rows,
        "oracle": _jsonable(table),
        "classification": None,
        "verdict": None,
        "identities": identities,
    }
    human = [f"oracle {problem.name or cfg.input}: jets vs finite differences "
             f"at {accounting['used']} points (h = {cfg.fd_step:g})"]
    for key in sorted(table):
        entry = table[key]
        status = "ok" if entry["ok"] else "DISAGREES"
        human.append(f"  {key:<4} worst error {entry['max_err']:.3e} "
                     f"(tolerance there {entry['worst_tol']:.3e})  {status}")
    return Report(data=_jsonable(data), human=tuple(human))


# -- argument plumbing -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input", help=".spray file path or fixture name")
    sub.add_argument("--points", type=int, default=64,
                     help="sample count (default 64)")
    sub.add_argument("--seed", type=int, default=None,
                     help="sampling seed (default 7, or SPRAYLAB_SEED)")
    sub.add_argument("--order", type=int, default=4,
                     help=f"jet truncation order, at least {MIN_ORDER} "
                          "(default 4)")
    sub.add_argument("--tol-abs", type=float, default=1e-8)
    sub.add_argument("--tol-rel", type=float, default=1e-6)
    sub.add_argument("--fd-step", type=float, default=1e-3)
    sub.add_argument("--box", type=float, nargs=4, default=None,
                     metavar=("XLO", "XHI", "YLO", "YHI"),
                     help="sample box (default -0.8 0.8 -1 1)")
    sub.add_argument("--const", action="append", default=[],
                     metavar="NAME=VALUE",
                     help="override a const declared in the source")
    sub.add_argument("--out", default="",
                     help="write the JSON report here instead of stdout")


def _parse_consts(pairs) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParamError(f"--const wants NAME=VALUE, got {pair!r}")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ParamError(f"--const {name.strip()}: {value!r} is not a number")
    return out


def _config(args, input_value: str = "") -> RunConfig:
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("SPRAYLAB_SEED", "7"))
        except ValueError:
            raise ParamError("SPRAYLAB_SEED must be an integer")
    return RunConfig(
        input=input_value,
        points=args.points,
        seed=seed,
        order=args.order,
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
        fd_step=args.fd_step,
        out=args.out,
        box=tuple(args.box) if args.box else (-0.8, 0.8, -1.0, 1.0),
        consts=_parse_consts(args.const),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spraylab",
        description="curvature classification and metrizability decisions "
                    "for sprays")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="sample and classify")
    _add_common(p_classify)

    p_metrize = sub.add_parser("metrize", help="run the decision procedures")
    _add_common(p_metrize)

    p_gen = sub.add_parser("gen-pflat",
                           help="generate a projectively flat pair from a "
                                "quadratic potential")
    p_gen.add_argument("--A", required=True,
                       help="row-major symmetric matrix, comma separated")
    p_gen.add_argument("--B", required=True, help="vector, comma separated")
    p_gen.add_argument("--C", required=True, type=float)
    p_gen.add_argument("--dir", default=".", help="where to write the files")
    p_gen.add_argument("--name", default="pflat_gen",
                       help="basename for the generated files")
    _add_common(p_gen, with_input=False)

    p_oracle = sub.add_parser("oracle",
                              help="compare jets against finite differences")
    _add_common(p_oracle)
    return parser


def _emit(report: Report, cfg: RunConfig) -> None:
    payload = report.json_bytes()
    if cfg.out:
        Path(cfg.out).write_bytes(payload)
        for line in report.human:
            print(line)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        for line in report.human:
            print(line, file=sys.stderr)


def _csv_floats(text: str, what: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParamError(f"--{what} wants comma-separated numbers, got {text!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_CONFIG

    try:
        if args.command == "gen-pflat":
            cfg = _config(args)
            q = pflat.QuadraticData.from_mapping({
                "A": _csv_floats(args.A, "A"),
                "B": _csv_floats(args.B, "B"),
                "C": args.C,
            })
            report = cmd_gen_pflat(q, cfg, directory=args.dir, name=args.name,
                                   box_flagged=args.box is not None)
        else:
            cfg = _config(args, input_value=args.input)
            command = {
                "classify": cmd_classify,
                "metrize": cmd_metrize,
                "oracle": cmd_oracle,
            }[args.command]
            report = command(cfg, box_flagged=args.box is not None)
    except SamplingError as exc:
        print(f"sampling exhausted: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except (SprayLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _emit(report, cfg)
    return EXIT_FIXTURE if report.mismatches else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
