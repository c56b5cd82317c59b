"""Report bytes as data: the exit code and the SHA-256 of the report of
every run in RUNS, recorded in report_digests.json next to this file.

A change that moves report bytes shows as the digests it moves, in the
diff of that file.  Regenerate it with

    python tests/test_report_digests.py --write

which prints one line per run whose exit code or digest moved, and per
run added or removed, against the file it replaces.

The bits of numpy's log and exp depend on the numpy version and on the CPU
kernels numpy dispatches to, so the file records both.  On a host where
either differs, each run still checks its exit code, and the digest
comparison is skipped with a message naming the mismatch.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import this checkout's uclab
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from uclab.cli import main  # noqa: E402
from uclab.families import Family, save_family  # noqa: E402
from uclab.setdist import (  # noqa: E402
    golden_threshold_mixture,
    product_bernoulli,
    save_distribution,
    save_mixture,
)

DIGESTS = Path(__file__).resolve().with_name("report_digests.json")
SEEDS = (1729, 7)
BOTH, JSON = ("json", "csv"), ("json",)
# every subcommand at its defaults, delta-search at both ends of alpha,
# the file inputs, a small exact counterexample, the coupling DP both ways,
# and a failing run, each in every format it allows; the input names
# are relative, because reports echo the paths they were given
CASES = (
    (["scalar"], BOTH),
    (["lemma"], BOTH),
    (["families"], BOTH),
    (["theorem2"], BOTH),
    (["counterexample"], BOTH),
    (["coupling", "delta-search"], BOTH),
    (["coupling", "delta-search", "--alpha", "0"], JSON),
    (["coupling", "delta-search", "--alpha", "1"], JSON),
    (["all"], JSON),
    (["theorem2", "--dist-file", "dist.txt", "--mixture-file", "mix.txt"], JSON),
    (["counterexample", "--n", "10"], BOTH),
    (["coupling", "dp", "--family", "fam.txt"], BOTH),
    (["coupling", "dp", "--family", "fam.txt", "--literal-rates"], BOTH),
    (["scalar", "--grid", "1"], BOTH),
)
RUNS = [
    [*argv, "--format", fmt, "--seed", str(seed)]
    for seed in SEEDS
    for argv, formats in CASES
    for fmt in formats
]


def host() -> dict:
    """The numpy version and the CPU dispatch targets numpy enabled here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_dispatch": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
    }


def write_inputs(directory: Path) -> None:
    save_distribution(product_bernoulli(5, 0.3), directory / "dist.txt")
    save_mixture(golden_threshold_mixture(0.5, 8), directory / "mix.txt")
    save_family(Family.of(3, [2, 3, 4, 6, 7]), directory / "fam.txt")


def run(argv) -> tuple:
    """Exit code and report SHA-256 (None without a report) of argv, run
    in-process in the working directory."""
    report = Path("report")
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(report)])
    if not report.exists():
        return code, None
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    report.unlink()
    return code, digest


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_the_file_lists_every_run(recorded):
    assert [entry["argv"] for entry in recorded["runs"]] == RUNS


@pytest.mark.parametrize("argv", RUNS, ids="_".join)
def test_report_matches_its_recorded_digest(argv, recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    entry = next(e for e in recorded["runs"] if e["argv"] == argv)
    code, digest = run(argv)
    assert code == entry["exit"]
    here = host()
    moved = [f"{key} {recorded[key]} there, {value} here"
             for key, value in here.items() if recorded[key] != value]
    if moved:
        pytest.skip("digests were recorded on another host: " + "; ".join(moved))
    assert digest == entry["sha256"]


def _changes(old: list, new: list) -> list:
    """One line per run of new whose exit code or digest differs from its
    entry in old, and one per run only one of the two lists holds."""
    before = {tuple(e["argv"]): (e["exit"], e["sha256"]) for e in old}
    after = {tuple(e["argv"]): (e["exit"], e["sha256"]) for e in new}
    lines = []
    for argv, (code, digest) in after.items():
        if argv not in before:
            lines.append(f"added   {' '.join(argv)}: exit {code}, sha256 {digest}")
        elif before[argv] != (code, digest):
            was_code, was_digest = before[argv]
            lines.append(f"moved   {' '.join(argv)}: exit {was_code} -> {code}, "
                         f"sha256 {was_digest} -> {digest}")
    lines += [f"removed {' '.join(argv)}: exit {code}, sha256 {digest}"
              for argv, (code, digest) in before.items() if argv not in after]
    return lines


def test_changes_name_each_moved_added_and_removed_run():
    old = [{"argv": ["a"], "exit": 0, "sha256": "1"}, {"argv": ["b"], "exit": 0, "sha256": "2"},
           {"argv": ["c"], "exit": 1, "sha256": "3"}]
    new = [{"argv": ["a"], "exit": 0, "sha256": "1"}, {"argv": ["b"], "exit": 2, "sha256": None},
           {"argv": ["d", "e"], "exit": 0, "sha256": "4"}]
    assert _changes(old, new) == [
        "moved   b: exit 0 -> 2, sha256 2 -> None",
        "added   d e: exit 0, sha256 4",
        "removed c: exit 1, sha256 3",
    ]
    assert _changes(new, new) == []


def write() -> None:
    """Rewrite the file, and print what moved against the one it replaces."""
    old = json.loads(DIGESTS.read_text())["runs"] if DIGESTS.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            runs = [dict(zip(("argv", "exit", "sha256"), (argv, *run(argv)))) for argv in RUNS]
        finally:
            os.chdir(cwd)
    head = json.dumps(host())[:-1]
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in runs)
    DIGESTS.write_text(f'{head}, "runs": [\n{lines}\n]}}\n')
    for line in _changes(old, runs):
        print(line)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write()
