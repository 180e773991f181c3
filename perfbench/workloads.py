"""The four benchmark workloads, each a seeded list of jobs.

A job is one user-visible call: a `spraylab` command through `cli.main`, or
one library call.  `Job.call` is the timed part.  `Job.check` runs after the
clock stops: it raises `JobError` when the outcome is wrong and otherwise
returns the bytes whose SHA-256 must repeat from pass to pass.

Building the job list is the workload's set-up: it loads or generates the
inputs and touches the jet spaces the jobs will use, so the first timed job
does not pay for them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from spraylab import cli, corpus, dsl, geometry, jets, metrize, sampling

POINTS = 64  # the CLI default; every job asks for this many sample points
# Jet spaces (nvars, highest order) that one pass of each workload builds at
# the parent commit, found by counting JetSpace constructions during a pass.
SPACES = {
    "corpus": ((4, 7), (6, 4)),
    "recover": ((4, 6),),
    "highdim": ((6, 4), (8, 4)),
    "oracle": ((4, 6), (6, 4)),
}
RECOVER_FIXTURES = ("ex7.1", "elliptic2", "ex7.3")
RECOVER_SEEDS = 3  # decide() runs at this many seeds derived from the seed
HIGHDIM_DIMS = (3, 4)
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class JobError(Exception):
    """A job ran but its outcome is wrong."""


@dataclass(frozen=True)
class Job:
    label: str
    points: int
    call: Callable[[], object]
    check: Callable[[object], bytes]


def expected_digests(workload: str, seed: int) -> dict:
    """Recorded digests that this run must reproduce: label -> SHA-256."""
    if workload != "corpus":
        return {}
    recorded = json.loads(DIGESTS.read_text())
    return recorded["digests"] if seed == recorded["seed"] else {}


class _Stdout:
    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def run_cli(argv: list) -> tuple:
    """`spraylab ARGV` in this process: (exit code, JSON bytes)."""
    out = _Stdout()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.buffer.getvalue()


def _cli_job(label: str, argv: list,
             check: Callable[[bytes], None] | None = None) -> Job:
    def checked(outcome) -> bytes:
        code, payload = outcome
        if code != 0:
            raise JobError(f"exit code {code}")
        if check is not None:
            check(payload)
        return payload

    return Job(label, POINTS, partial(run_cli, argv), checked)


def _touch_spaces(workload: str) -> None:
    for nvars, top in SPACES[workload]:
        for order in range(top + 1):
            jets.space(nvars, order)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


# -- corpus ------------------------------------------------------------------


def _fixture_check(report) -> bytes:
    if not report.passed:
        raise JobError("; ".join(report.diffs))
    return _canonical({
        "flags": report.flags,
        "verdict": [report.verdict.outcome, report.verdict.rule,
                    repr(report.verdict.residual)],
        "checks": {k: repr(v) for k, v in report.checks.items()},
    })


def _run_fixture(name: str, seed: int):
    # looked up at call time, like every library call here, so that a
    # traced pass goes through the tracer's wrapper
    return corpus.run_fixture(name, seed=seed)


def corpus_jobs(seed: int, workdir: Path) -> list:
    _touch_spaces("corpus")
    jobs = []
    for name in corpus.fixture_names():
        for command in ("classify", "metrize"):
            jobs.append(_cli_job(f"{command} {name}",
                                 [command, name, "--seed", str(seed)]))
        fixture = corpus.load_fixture(name)
        jobs.append(Job(f"run_fixture {name}", fixture.count,
                        partial(_run_fixture, name, seed),
                        _fixture_check))
    return jobs


# -- recover -----------------------------------------------------------------


def _closed_form(fixture):
    """The fixture's closed-form recovered metric: (L(point), rel, atol)."""
    chk = next(c for c in fixture.checks if c["kind"] == "recovered_expr")
    n = fixture.problem.dim
    metric = geometry.ExprMetric(dsl.parse(f"dim {n}\nmetric L = {chk['expr']}\n"))
    return metric.value, float(chk.get("rel", 0.0)), float(chk.get("atol", 1e-8))


def _fresh_points(spray, box, seed: int) -> np.ndarray:
    def accept(pt):
        return all(g > 1e-6 for g in spray.guard_values(pt))

    return sampling.sample_points(spray.dim, count=POINTS, seed=seed, box=box,
                                  accept=accept).points()


def _decide(verdicts: dict, key: tuple, spray, box):
    verdicts[key] = metrize.decide(spray, count=POINTS, seed=key[1], box=box)
    return verdicts[key]


def _verdict_check(v) -> bytes:
    if v.outcome != "metrizable_with_metric" or v.recovered_metric is None:
        raise JobError(f"verdict {v.outcome} ({v.rule})")
    return _canonical([v.outcome, v.rule, repr(v.residual)])


def _read(verdicts: dict, key: tuple, pts: np.ndarray) -> list:
    metric = verdicts.pop(key).recovered_metric
    return [metric.value(pt) for pt in pts]


def _read_check(pts: np.ndarray, closed: tuple, values: list) -> bytes:
    want, rel, atol = closed
    for pt, got in zip(pts, values):
        ref = want(pt)
        if not abs(got - ref) <= atol + rel * abs(ref):
            raise JobError(f"recovered L = {got!r} at {list(pt)}, "
                           f"closed form {ref!r}")
    return _canonical([repr(v) for v in values])


def _shift(metric, c: float, seed: int, box):
    return metrize.projective_shift(metric, c, count=POINTS, seed=seed,
                                    box=box)[1]


def _shift_check(c: float, v) -> bytes:
    # the round sphere has flag curvature 1: metrizable iff c = 0
    if (v.outcome in metrize.METRIZABLE_OUTCOMES) != (c == 0.0):
        raise JobError(f"shift c={c}: verdict {v.outcome}")
    return _canonical([v.outcome, v.rule, repr(v.residual)])


def recover_jobs(seed: int, workdir: Path) -> list:
    _touch_spaces("recover")
    seeds = [seed + 1000 * k for k in range(RECOVER_SEEDS)]
    verdicts: dict = {}  # decide job -> its verdict, until the read job
    jobs = []
    for name in RECOVER_FIXTURES:
        fixture = corpus.load_fixture(name)
        spray = fixture.build()
        closed = _closed_form(fixture)
        # a seed stream the verdicts never sample from
        pts = _fresh_points(spray, fixture.box, seed + 500)
        for s in seeds:
            key = (name, s)
            jobs.append(Job(f"decide {name} seed {s}", POINTS,
                            partial(_decide, verdicts, key, spray, fixture.box),
                            _verdict_check))
            jobs.append(Job(f"read {name} seed {s}", len(pts),
                            partial(_read, verdicts, key, pts),
                            partial(_read_check, pts, closed)))
    sphere = corpus.load_fixture("elliptic2")
    metric = sphere.metric()
    for c in (0.0, 1.0):
        jobs.append(Job(f"projective_shift elliptic2 c={c}", POINTS,
                        partial(_shift, metric, c, seed, sphere.box),
                        partial(_shift_check, c)))
    return jobs


# -- highdim -----------------------------------------------------------------


def _csv(values) -> str:
    return ",".join(f"{v:.4f}" for v in np.ravel(values))


def random_spray_source(n: int, rng: np.random.Generator) -> str:
    """A 2-homogeneous spray: quadratic y-terms with x-linear coefficients
    plus y^i |y|, sampled where |y|^2 stays away from zero."""
    norm2 = " + ".join(f"y{j}^2" for j in range(1, n + 1))
    lines = [f"dim {n}"]
    for i in range(1, n + 1):
        terms = []
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                a, b = rng.uniform(-0.5, 0.5, size=2)
                xi = rng.integers(1, n + 1)
                terms.append(f"({a:.4f} + {b:.4f}*x{xi})*y{j}*y{k}")
        terms.append(f"{rng.uniform(0.1, 0.5):.4f}*y{i}*sqrt({norm2})")
        lines.append(f"spray G{i} = " + " + ".join(terms))
    lines.append(f"guard = {norm2} - 0.04")
    return "\n".join(lines) + "\n"


def _pflat_check(payload: bytes) -> None:
    data = json.loads(payload)
    if not data["generated"]["admissible"]["value"]:
        raise JobError("generated pair is not admissible")
    if data["verdict"]["outcome"] != "metrizable_with_metric":
        raise JobError(f"verdict {data['verdict']['outcome']}")


def highdim_jobs(seed: int, workdir: Path) -> list:
    """Runs with `workdir` as the current directory, so the paths that
    gen-pflat writes into its report are relative and repeat."""
    _touch_spaces("highdim")
    rng = np.random.default_rng(seed)
    (workdir / "sprays").mkdir(parents=True, exist_ok=True)
    jobs = []
    for n in HIGHDIM_DIMS:
        pert = rng.uniform(-0.1, 0.1, size=(n, n))
        A = np.eye(n) + 0.5 * (pert + pert.T)
        B = rng.uniform(-0.1, 0.1, size=n)
        jobs.append(_cli_job(f"gen-pflat dim {n}",
                             ["gen-pflat", f"--A={_csv(A)}", f"--B={_csv(B)}",
                              "--C=1", "--dir=gen", f"--name=pflat{n}",
                              "--seed", str(seed)], _pflat_check))
        path = Path("sprays") / f"random{n}.spray"
        (workdir / path).write_text(random_spray_source(n, rng))
        jobs.append(_cli_job(f"classify random dim {n}",
                             ["classify", str(path), "--seed", str(seed)]))
    return jobs


# -- oracle ------------------------------------------------------------------


def _oracle_check(payload: bytes) -> None:
    # The report's own "ok" flags are data, not a job failure: at the parent
    # commit a few fixtures sit just past the oracle's 1e-5 floor at every
    # seed tried, and the command still succeeds.  They enter the digest.
    table = json.loads(payload)["oracle"]
    if sorted(table) != ["B", "R", "chi"]:
        raise JobError(f"oracle table has entries {sorted(table)}")
    for key, entry in table.items():
        if entry["max_err"] is None or entry["worst_tol"] is None:
            raise JobError(f"oracle {key}: non-finite error")


def oracle_jobs(seed: int, workdir: Path) -> list:
    _touch_spaces("oracle")
    return [_cli_job(f"oracle {name}", ["oracle", name, "--seed", str(seed)],
                     _oracle_check)
            for name in corpus.fixture_names()]


WORKLOADS = {
    "corpus": corpus_jobs,
    "recover": recover_jobs,
    "highdim": highdim_jobs,
    "oracle": oracle_jobs,
}
