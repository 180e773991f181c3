"""Command-line front end: classify, metrize, gen-pflat, oracle.

Each command reads a problem (a .spray file path or a named corpus fixture),
samples it deterministically, and emits one JSON report plus a short human
summary.  `classify`, `metrize` and `gen-pflat` draw their samples once, in
the classification; the per-point survey and the verdict read that
classification's block bundles, and the survey takes a block's identities
in one call (`classify.bundle_rows` states the rule for a block that
raises).  The JSON goes to stdout, or to --out PATH; the human lines go
to whichever stream the JSON is not using, so scripts can always pipe the
JSON.

Identical configuration (including the seed) produces byte-identical JSON.
The default seed is 7 and can be overridden by the SPRAYLAB_SEED environment
variable; an explicit --seed beats both.

Exit codes: 0 ok; 1 parse or configuration error; 2 sampling exhausted;
3 the run disagrees with a fixture's recorded expectations.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, corpus, dsl, geometry, metrize, oracle, pflat, sampling
from .errors import ParamError, SamplingError, SprayLabError, UnknownFixture
from .sampling import TOL, SampleBox, SampleSet, Tolerances
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

# The largest sample count a command takes.  A classification keeps the
# block bundle of every sample until its verdict is done: `classify
# nonscalar3` peaks at 39.8 / 45.3 / 63.3 MB of RSS at 64 / 256 / 1024
# points (2-vCPU x86), about 23 KB a point, so 10,000 points keep about
# 230 MB of bundles at dim 3 and order 4, and more at higher dims and orders.
MAX_POINTS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by every command."""

    input: str = ""
    points: int = 64
    seed: int = 7
    order: int = 4
    tol_abs: float = TOL.abs
    tol_rel: float = TOL.rel
    fd_step: float = 1e-3
    out: str = ""
    box: tuple | None = None  # None: no --box was given
    consts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points < 1:
            raise ParamError(f"points must be >= 1, got {self.points}")
        if self.points > MAX_POINTS:
            raise ParamError(f"points must be <= {MAX_POINTS}, got {self.points}: the "
                             "report keeps the curvature bundle of every sample")
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
        if self.box is not None and len(self.box) != 4:
            raise ParamError("box needs four numbers: x_lo x_hi y_lo y_hi")
        self.sample_box  # SampleBox refuses a box that is not finite or is empty

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(abs=self.tol_abs, rel=self.tol_rel)

    @property
    def sample_box(self) -> SampleBox:
        return SampleBox() if self.box is None else SampleBox(*map(float, self.box))

    def echo(self) -> dict:
        return {
            "input": self.input,
            "points": self.points,
            "seed": self.seed,
            "order": self.order,
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "fd_step": self.fd_step,
            "box": list(dataclasses.astuple(self.sample_box)),
            "consts": {k: float(v) for k, v in sorted(self.consts.items())},
        }


@dataclass(frozen=True)
class Report:
    """One command's outcome: the report dict as the command built it,
    plus printable lines.

    `data` holds the command's values as they are: numpy scalars and
    arrays, tuples, non-finite floats, richer objects.  `json_bytes` is the
    one conversion of a report to JSON; `_write_json` states its rules.
    `mismatches` is nonempty only when a fixture comparison failed; the
    process exit code keys off it."""

    data: dict
    human: tuple
    mismatches: tuple = ()

    def json_bytes(self) -> bytes:
        out = []
        _write_json(self.data, "", out)
        out.append("\n")
        return "".join(out).encode()


_quote = json.encoder.encode_basestring_ascii


def _write_json(obj, pad: str, out: list) -> None:
    """Append to `out` the JSON text of the report value obj at the indent
    `pad`, in one recursive pass: the text `json.dumps(indent=2,
    sort_keys=True)` gives for obj made JSON-safe by these rules.

    - a finite float is written with `float.__repr__`, and a non-finite
      float as null;
    - numpy floats, ints and bools are written as Python's `float`, `int`
      and `bool` would be;
    - an ndarray is written as its `tolist()`;
    - a tuple is written as a list, and dict keys as `str(k)`, sorted;
    - any other object (a recovered metric, a quadrature table) is written
      as "<TypeName>": reprs carry addresses and would break
      byte-determinism.

    A list of floats is joined in one call; `float.__repr__` writes an inf
    or a nan with an "n", which no finite float's text holds, so such a
    list takes the per-item path, which writes null there."""
    if type(obj) is float:
        text = float.__repr__(obj)
        out.append("null" if "n" in text else text)
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(sep + _quote(key) + ": ")
            sep = ",\n" + inner
            _write_json(value, inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        try:
            text = (",\n" + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item is not a float
            text = "n"
        if "n" not in text:
            out.append("[\n" + inner + text + "\n" + pad + "]")
            return
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            sep = ",\n" + inner
            _write_json(value, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), pad, out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _write_json(float(obj), pad, out)
    else:
        out.append(_quote(f"<{type(obj).__name__}>"))


# -- problem loading ---------------------------------------------------------


def _resolve(cfg: RunConfig):
    """Input path or fixture name -> (ProblemDef, fixture or None)."""
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


def _pick_box(cfg: RunConfig, fixture) -> SampleBox:
    """A fixture's box wins unless --box was given."""
    if cfg.box is None and fixture is not None and fixture.box is not None:
        return fixture.box
    return cfg.sample_box


def _accounting(cfg: RunConfig, samples: SampleSet) -> dict:
    return {
        "requested": cfg.points,
        "used": samples.count,
        "candidates": samples.candidates,
        "rejected": samples.rejected,
    }


def _surveyed(blocks, tol: Tolerances, rows: list, identities: dict):
    """Summarize each sample of the (points, bundle, decompositions)
    entries of `blocks` into `rows` and the aggregated identity table,
    then pass each block bundle on.  `blocks` may be a generator; each
    bundle is summarized once and not kept.  The identities of a block
    bundle's rows are taken in one call (`classify.bundle_rows`)."""
    for points, b, decs in blocks:
        for pt, G, ric, dec, res in zip(
                points, b.G_values, b.Ric_value.tolist(), decs,
                classify.bundle_rows(geometry.identity_residuals, b, tol)):
            row = {"point": pt, "G": G, "Ric": ric, "scalar_split": dec.holds}
            if dec.holds:
                row["R"] = dec.R
                row["tau"] = dec.tau
            rows.append(row)
            for name, value in res.items():
                identities[name] = max(identities.get(name, 0.0), value)
        yield b
        # so that the next block is built without this one
        del b, decs, G, dec, res


def _survey(blocks, tol: Tolerances):
    """Per-point summaries plus the identity table, as `_surveyed` makes."""
    rows: list = []
    identities: dict = {}
    for _ in _surveyed(blocks, tol, rows, identities):
        pass
    return rows, identities


def _classification_json(rep) -> dict:
    return {
        flag: {"value": rep.flags[flag], "residual": rep.residuals.get(flag)}
        for flag in rep.flags
    }


def _verdict_json(v, samples) -> dict:
    out = {
        "outcome": v.outcome,
        "rule": v.rule,
        "residual": v.residual,
        "evidence": v.evidence,
    }
    if v.recovered_metric is not None:
        pts = samples.points()
        out["recovered_metric"] = {
            "name": getattr(v.recovered_metric, "name",
                            type(v.recovered_metric).__name__),
            "sample_values": [
                {"point": pt, "value": v.recovered_metric.value(pt)}
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
    rows, identities = _survey(rep.blocks, tol)
    return rep, verdict, {
        "sampling": _accounting(cfg, rep.samples),
        "points": rows,
        "classification": _classification_json(rep),
        "verdict": _verdict_json(verdict, rep.samples),
        "identities": identities,
    }


def _flag_lines(rep, verdict) -> list:
    """One line per classification flag, then the verdict's line."""
    out = []
    for flag, value in rep.flags.items():
        res = rep.residuals.get(flag)
        shown = "   -" if res is None or not np.isfinite(res) else f"{res:.2e}"
        out.append(f"  {flag:<16} {str(bool(value)).lower():<5} "
                   f"residual {shown}")
    out.append(f"  verdict          {verdict.outcome} ({verdict.rule})")
    return out


# -- commands ----------------------------------------------------------------


def _decide_command(command: str, headline, cfg: RunConfig) -> Report:
    """The body of `classify` and `metrize`: they differ only in the
    report's "command" field and in the human lines `headline` gives."""
    problem, fixture = _resolve(cfg)
    spray = geometry.spray_of(problem)
    rep, verdict, blocks = _decision(spray, cfg, _pick_box(cfg, fixture),
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
    return Report(data=data, human=tuple(human), mismatches=mism)


def _classify_lines(name: str, spray, cfg: RunConfig, rep, verdict) -> list:
    human = [f"classify {name}: dim {spray.dim}, {rep.samples.count} points "
             f"(seed {cfg.seed}, {rep.samples.rejected} rejected)"]
    return human + _flag_lines(rep, verdict)


def _metrize_lines(name: str, spray, cfg: RunConfig, rep, verdict) -> list:
    human = [f"metrize {name}: {verdict.outcome}",
             f"  rule: {verdict.rule}",
             f"  residual: {verdict.residual:.3e}"]
    if verdict.recovered_metric is not None:
        pt = rep.samples.points()[0]
        human.append(f"  recovered L at {[round(float(x), 3) for x in pt]}: "
                     f"{verdict.recovered_metric.value(pt):.9g}")
    return human


def cmd_classify(cfg: RunConfig) -> Report:
    return _decide_command("classify", _classify_lines, cfg)


def cmd_metrize(cfg: RunConfig) -> Report:
    return _decide_command("metrize", _metrize_lines, cfg)


def cmd_gen_pflat(q: pflat.QuadraticData, cfg: RunConfig,
                  directory: str = ".", name: str = "pflat_gen") -> Report:
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
        rics = (ric for _, b, _ in rep.blocks for ric in b.Ric_value.tolist())
        for (pt, _, _, _, err), ric in zip(metrize.metric_spray_residuals(
                metric, rep.blocks, parallel=False), rics):
            spray_match = max(spray_match, err)
            ric_match = max(ric_match, abs(ric - (n - 1) * metric.value(pt)))
        roundtrip = {"spray_match": spray_match, "ric_identity": ric_match}

    data = {
        "command": "gen-pflat",
        "config": cfg.echo(),
        "generated": {
            "spray_path": str(spray_path),
            "metric_path": str(metric_path),
            "dim": n,
            "admissible": {"value": adm.admissible, "mode": adm.mode,
                           "margin": adm.margin},
        },
        "roundtrip": roundtrip,
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
    human += _flag_lines(rep, verdict)
    return Report(data=data, human=tuple(human))


def cmd_oracle(cfg: RunConfig) -> Report:
    problem, fixture = _resolve(cfg)
    spray = geometry.spray_of(problem)
    tol = cfg.tolerances
    box = _pick_box(cfg, fixture)

    samples = sampling.draw(spray, count=cfg.points, seed=cfg.seed, box=box)
    accounting = _accounting(cfg, samples)
    # each block bundle is summarized as it is read, then agreement_report
    # compares it against the finite differences and drops it
    rows: list = []
    identities: dict = {}
    blocks = classify.block_bundles(spray, samples, cfg.order, tol)
    table = oracle.agreement_report(
        _surveyed(blocks, tol, rows, identities), h=cfg.fd_step)

    data = {
        "command": "oracle",
        "config": cfg.echo(),
        "sampling": accounting,
        "points": rows,
        "oracle": table,
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
    return Report(data=data, human=tuple(human))


# -- argument plumbing -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input", help=".spray file path or fixture name")
    sub.add_argument("--points", type=int, default=RunConfig.points,
                     help=f"sample count, at most {MAX_POINTS} (default {RunConfig.points})")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"sampling seed (default {RunConfig.seed}, or SPRAYLAB_SEED)")
    sub.add_argument("--order", type=int, default=RunConfig.order,
                     help=f"jet truncation order, at least {MIN_ORDER} "
                          f"(default {RunConfig.order})")
    sub.add_argument("--tol-abs", type=float, default=RunConfig.tol_abs)
    sub.add_argument("--tol-rel", type=float, default=RunConfig.tol_rel)
    sub.add_argument("--fd-step", type=float, default=RunConfig.fd_step)
    sub.add_argument("--box", type=float, nargs=4, default=None,
                     metavar=("XLO", "XHI", "YLO", "YHI"),
                     help="sample box (default "
                          f"{' '.join(f'{v:g}' for v in dataclasses.astuple(SampleBox()))})")
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
            seed = int(os.environ.get("SPRAYLAB_SEED", RunConfig.seed))
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
        box=tuple(args.box) if args.box is not None else None,
        consts=_parse_consts(args.const),
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parse leaves it as it was."""
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
            report = cmd_gen_pflat(q, cfg, directory=args.dir, name=args.name)
        else:
            cfg = _config(args, input_value=args.input)
            command = {
                "classify": cmd_classify,
                "metrize": cmd_metrize,
                "oracle": cmd_oracle,
            }[args.command]
            report = command(cfg)
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
