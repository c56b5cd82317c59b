"""Report bytes as data: the exit code and the SHA-256 of the report of
every run in RUNS, recorded in report_digests.json next to this file.

A change that moves report bytes shows as the digests it moves, in the
diff of that file.  Regenerate it with

    python tests/test_report_digests.py --write

which prints, per block, one line per run whose exit code or digest moved,
and per run added or removed, against the file it replaces.

The bits depend on the numpy version and on the CPU kernels numpy
dispatches to.  On x86 the X86_V4 (AVX-512) group moves them: disabling
it changes the bytes of 11 of the 33 runs, disabling AVX512_ICL or
AVX512_SPR alone changes none, and disabling X86_V3 too changes no more
(all three measured when RUNS held 48 runs, 16 of them moved).  Of its
kernels, the float64 `log1p` of `scalars.entropy_kernel` moves `lemma`,
`coupling delta-search` and `all`, and the float64 `power` of
`counterexample`'s `theta ** k` moves `counterexample` (each found by
swapping the kernel for its `math` twin on both dispatch paths).  So the
file holds one block per dispatch key, the numpy version and the enabled
dispatch targets as host() gives them.  --write records this host's block
in-process and the block with the AVX-512 groups disabled (DISABLED, read
by numpy at its import) in one subprocess.  On a host whose key no block
holds, each run still checks its exit code, and the digest comparison is
skipped with a message naming the key.
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

from helpers import command_parser, fresh_python, takes, write_input_files  # noqa: E402
from uclab.cli import main  # noqa: E402

DIGESTS = Path(__file__).resolve().with_name("report_digests.json")
# the groups whose kernels move report bits on x86 (see above)
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
SEEDS = (1729, 7)
BOTH, JSON = ("json", "csv"), ("json",)
# every subcommand at its defaults, delta-search at both ends of alpha,
# the file inputs, a small exact counterexample, the coupling DP both ways,
# and a failing run, each in every format it allows (`all` takes no
# --format and writes JSON); the input names are relative, because reports
# echo the paths they were given
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
# cases whose report holds nothing drawn, though their command takes
# --seed: lemma's CSV is the rows of its scan
UNDRAWN = [(["lemma"], "csv")]
# each case in each format at the first seed, and at every other seed where
# its report holds a draw: a command that takes no --seed, and an UNDRAWN
# case, would write the same bytes again
RUNS = [
    [*argv, *(["--format", fmt] if takes(argv, "--format") else []),
     *(["--seed", str(seed)] if takes(argv, "--seed") else [])]
    for seed in SEEDS
    for argv, formats in CASES
    for fmt in formats
    if seed == SEEDS[0] or (takes(argv, "--seed") and (argv, fmt) not in UNDRAWN)
]


def host() -> dict:
    """The dispatch key: the numpy version and the CPU dispatch targets
    numpy enabled here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_dispatch": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
    }


def _key(block: dict) -> str:
    return f"numpy {block['numpy']}, cpu_dispatch {' '.join(block['cpu_dispatch']) or '-'}"


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
def blocks():
    return json.loads(DIGESTS.read_text())["blocks"]


def test_each_block_is_one_dispatch_key_and_lists_every_run(blocks):
    assert len({_key(block) for block in blocks}) == len(blocks)
    for block in blocks:
        assert [entry["argv"] for entry in block["runs"]] == RUNS


@pytest.mark.parametrize("argv", RUNS, ids="_".join)
def test_report_matches_its_recorded_digest(argv, blocks, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_input_files(tmp_path)
    key = _key(host())
    block = next((b for b in blocks if _key(b) == key), None)
    entry = next(e for e in (block or blocks[0])["runs"] if e["argv"] == argv)
    code, digest = run(argv)
    assert code == entry["exit"]
    if block is None:
        pytest.skip(f"no block recorded for {key}; recorded: "
                    + "; ".join(_key(b) for b in blocks))
    assert digest == entry["sha256"]


def test_the_block_with_avx512_disabled_matches_in_a_fresh_interpreter(blocks):
    # checks the other x86 block on an AVX-512 host too, for about 2 s of
    # Tier-1 time; where numpy dispatches to none of DISABLED, the
    # in-process runs above already give that block
    if not set(DISABLED.split()) & set(host()["cpu_dispatch"]):
        pytest.skip(f"numpy dispatches to none of {DISABLED} here")
    block = _record_disabled()
    recorded = {_key(b): b["runs"] for b in blocks}
    if _key(block) not in recorded:
        pytest.skip(f"no block recorded for {_key(block)}")
    assert _changes(recorded[_key(block)], block["runs"]) == []


def test_no_two_runs_of_a_block_write_the_same_bytes(blocks):
    # a run that gives another run's bytes checks nothing that one does not
    repeats = []
    for block in blocks:
        first = {}
        for entry in block["runs"]:
            argv = first.setdefault(entry["sha256"], entry["argv"])
            if entry["sha256"] and argv is not entry["argv"]:
                repeats.append((_key(block), argv, entry["argv"]))
    assert repeats == []


def _today(argv) -> tuple:
    """argv without each flag that its command no longer defines, and the
    flag's value: the run that argv names today (`scalar --format json
    --seed 7`, recorded while scalar took --seed, is `scalar --format
    json`)."""
    flags = command_parser(argv)._option_string_actions
    kept, words = [], iter(argv)
    for word in words:
        if word.startswith("--") and word not in flags:
            next(words, None)
        else:
            kept.append(word)
    return tuple(kept)


def _changes(old: list, new: list) -> list:
    """One line per run of new whose exit code or digest differs from its
    entry in old, and one per run only one of the two lists holds.  An old
    run is the new run that its argv names today (see _today); a later old
    run that names the same one is removed."""
    before, removed = {}, []
    for e in old:
        if _today(e["argv"]) in before:
            removed.append(e)
        else:
            before[_today(e["argv"])] = e
    after = {tuple(e["argv"]): e for e in new}
    removed += [e for argv, e in before.items() if argv not in after]
    lines = []
    for argv, e in after.items():
        was = before.get(argv)
        if was is None:
            lines.append(f"added   {' '.join(argv)}: exit {e['exit']}, sha256 {e['sha256']}")
        elif (was["exit"], was["sha256"]) != (e["exit"], e["sha256"]):
            lines.append(f"moved   {' '.join(argv)}: exit {was['exit']} -> {e['exit']}, "
                         f"sha256 {was['sha256']} -> {e['sha256']}")
    lines += [f"removed {' '.join(e['argv'])}: exit {e['exit']}, sha256 {e['sha256']}"
              for e in old if e in removed]
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
    # a flag its command no longer defines is dropped with its value: the
    # first old run that then names a new run is that run, a later one is
    # removed, and an unmoved digest prints nothing
    old = [{"argv": ["scalar", "--seed", "1"], "exit": 0, "sha256": "5"},
           {"argv": ["all", "--format", "json", "--seed", "1"], "exit": 0, "sha256": "6"},
           {"argv": ["scalar", "--seed", "2"], "exit": 0, "sha256": "7"}]
    new = [{"argv": ["scalar"], "exit": 0, "sha256": "8"},
           {"argv": ["all", "--seed", "1"], "exit": 0, "sha256": "6"}]
    assert _changes(old, new) == [
        "moved   scalar: exit 0 -> 0, sha256 5 -> 8",
        "removed scalar --seed 2: exit 0, sha256 7",
    ]


def record() -> dict:
    """This host's block: its dispatch key and every run's exit code and
    digest, run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_input_files(Path(tmp))
            runs = [dict(zip(("argv", "exit", "sha256"), (argv, *run(argv)))) for argv in RUNS]
        finally:
            os.chdir(cwd)
    return {**host(), "runs": runs}


def _record_disabled() -> dict:
    """The block record() gives in a fresh interpreter with DISABLED off."""
    here = Path(__file__).resolve()
    script = (f"import json, sys; sys.path.insert(0, {str(here.parent)!r}); "
              f"import {here.stem}; print(json.dumps({here.stem}.record()))")
    return json.loads(fresh_python("-c", script, env_vars={
        "NPY_DISABLE_CPU_FEATURES": DISABLED, "OPENBLAS_NUM_THREADS": "1"}))


def write() -> None:
    """Rewrite the file with this host's block and the DISABLED one, and
    print what moved, per block, against the file it replaces."""
    old = {}
    if DIGESTS.exists():
        old = {_key(b): b["runs"] for b in json.loads(DIGESTS.read_text())["blocks"]}
    new = {}
    for block in (record(), _record_disabled()):
        new.setdefault(_key(block), block)
    text = []
    for key, block in new.items():
        runs = ",\n".join(f"    {json.dumps(entry)}" for entry in block["runs"])
        head = json.dumps({"numpy": block["numpy"], "cpu_dispatch": block["cpu_dispatch"]})
        text.append(f'  {head[:-1]}, "runs": [\n{runs}\n  ]}}')
        print(f"block {key}:" if key in old else f"block {key} (new):")
        for line in _changes(old.get(key, []), block["runs"]):
            print(f"  {line}")
    for key in old.keys() - new.keys():
        print(f"block {key}: removed")
    DIGESTS.write_text('{"blocks": [\n' + ",\n".join(text) + "\n]}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write()
