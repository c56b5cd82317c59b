"""The benchmark's workloads: CLI argv, seeded inputs and report validation.

Each workload is one `python -m uclab <subcommand>` invocation at the
subcommand's default flags, with no `--jobs` flag (so the CLI's default,
`os.cpu_count()`, applies) and with the benchmark's seed passed as `--seed`.
Why each workload exists is written in bench/README.md.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 1729

# headline fields per workload, as dotted paths into the report's "results"
HEADLINES = {
    "delta-search": ("delta", "min_slack", "violations"),
    "lemma": ("worst_slack", "worst_u", "worst_search_margin"),
    "tables": ("worst_slack", "dist_file.slack", "mixture_file.slack"),
    "suite": (
        *(f"suites.scalar.rows.{i}.worst" for i in range(5)),
        "suites.lemma.worst_slack",
        "suites.lemma.worst_u",
        "suites.lemma.worst_search_margin",
        "suites.families.min_best_proportion",
        "suites.families.families_checked",
        "suites.families.union_closed_count",
        "suites.theorem2.worst_slack",
        "suites.theorem2.product_sharpness_worst",
        "suites.counterexample.marginal",
        "suites.counterexample.ratio_upper",
        "suites.counterexample.kl_upper",
        "suites.coupling.delta",
        "suites.coupling.min_slack",
        "suites.coupling.violations",
    ),
}

COMMANDS = {
    "delta-search": ("coupling", "delta-search"),
    "lemma": ("lemma", "certify"),
    "tables": ("theorem2",),
    "suite": ("all",),
}

# a headline number may differ from the recorded value by this much, relative
# to max(1, |recorded|)
HEADLINE_RTOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")

DIST_N = 22
DIST_SUPPORT = 4096
MIXTURE_N = 20
MIXTURE_COMPONENTS = 3


def write_table_inputs(seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the `tables` inputs for `seed`: a sparse distribution on n = 22
    with 4,096 support masks under Dirichlet(1, ..., 1) weights, and a
    three-component product mixture on n = 20."""
    rng = random.Random(seed)
    masks = sorted(rng.sample(range(1 << DIST_N), DIST_SUPPORT))
    draws = [rng.expovariate(1.0) for _ in masks]
    total = math.fsum(draws)
    dist = directory / "dist.txt"
    dist.write_text(
        f"n={DIST_N}\n" + "".join(f"{m:x} {d / total:.17g}\n" for m, d in zip(masks, draws)),
        encoding="ascii",
    )
    draws = [rng.expovariate(1.0) for _ in range(MIXTURE_COMPONENTS)]
    total = math.fsum(draws)
    mixture = directory / "mixture.txt"
    mixture.write_text(
        f"n={MIXTURE_N}\n"
        + "".join(f"{d / total:.17g} {rng.uniform(0.05, 0.95):.17g}\n" for d in draws),
        encoding="ascii",
    )
    return dist, mixture


def cli_argv(workload: str, seed: int, directory: Path) -> list[str]:
    """The uclab argv of one run; the `tables` inputs are written to directory."""
    argv = [*COMMANDS[workload], "--seed", str(seed)]
    if workload == "tables":
        dist, mixture = write_table_inputs(seed, directory)
        argv += ["--dist-file", str(dist), "--mixture-file", str(mixture)]
    return argv


def field(results, path: str):
    value = results
    for key in path.split("."):
        value = value[int(key)] if isinstance(value, list) else value[key]
    return value


def headlines(workload: str, report: dict) -> dict:
    return {path: field(report["results"], path) for path in HEADLINES[workload]}


def _close(got, want) -> bool:
    # reports print 0.0 as 0, so a float field may parse as an int; numbers
    # compare within the tolerance, which is exact for counts below 1e9
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if not isinstance(got, (int, float)):
        return got == want
    return abs(got - want) <= HEADLINE_RTOL * max(1.0, abs(want))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["headlines"]


def validate(workload: str, seed: int, exit_code: int, text: str, reference=None) -> list[str]:
    """Problems with one run's outcome; an empty list means the run verified.

    Every run needs exit code 0, a report that parses, `"passed": true` and
    the requested command and seed.  At the default seed the headline fields
    must also match the values recorded in reference.json within
    HEADLINE_RTOL (fields, not report bytes, so later deterministic
    counters in the report do not break the check)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if report.get("passed") is not True:
        problems.append(f"passed is {report.get('passed')!r}: {report.get('failures')}")
    if report.get("command") != COMMANDS[workload][0]:
        problems.append(f"command is {report.get('command')!r}")
    if report.get("config", {}).get("seed") != seed:
        problems.append(f"config seed is {report.get('config', {}).get('seed')!r}")
    if seed == DEFAULT_SEED and not problems:
        want = (reference if reference is not None else load_reference())[workload]
        try:
            got = headlines(workload, report)
        except (KeyError, IndexError, TypeError) as exc:
            return problems + [f"headline field missing: {exc!r}"]
        for path, value in want.items():
            if not _close(got[path], value):
                problems.append(f"{path} = {got[path]!r}, recorded {value!r}")
    return problems
