import csv
import math
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, flags, header, rows",
    [
        (
            "delta_vs_alpha.py",
            ["--alphas", "0.05", "0.4", "--delta-steps", "20", "--v-steps", "16",
             "--mean-steps", "8"],
            ["alpha", "delta", "violations", "min_slack", "failure_at_threshold"],
            2,
        ),
        (
            "mixture_ratio_sweep.py",
            ["--thetas", "0.1", "0.01"],
            ["theta", "marginal", "ratio_bound", "ratio_limit", "kl_bound"],
            2,
        ),
    ],
)
def test_script_writes_one_finite_row_per_value(script, flags, header, rows, tmp_path,
                                                monkeypatch):
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, *flags, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) == 1 + rows
    for row in table[1:]:
        assert len(row) == len(header)
        for cell in row:
            assert cell in ("true", "false") or math.isfinite(float(cell))


def test_delta_script_spells_special_floats_as_the_cli(tmp_path, monkeypatch):
    # a NaN or infinite slack reads NaN / Infinity, as in `uclab --format csv`
    import uclab.coupling

    slacks = iter([math.nan, -math.inf])
    monkeypatch.setattr(uclab.coupling, "delta_search", lambda alpha, **kw: SimpleNamespace(
        delta=0.0, violations=2, min_slack=next(slacks), failure_at_threshold=True))
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", ["delta_vs_alpha.py", "--alphas", "0.05", "0.4",
                                      "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "delta_vs_alpha.py"), run_name="__main__")
    assert out.read_text().splitlines()[1:] == [
        "0.050000000000000003,0,2,NaN,true",
        "0.40000000000000002,0,2,-Infinity,true",
    ]
