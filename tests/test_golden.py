"""Byte-for-byte comparison of CLI outputs with the recorded copies in
`tests/golden/`.

The files were written by this config (N=40, E0=0.05 J, seed 3, every run
to last death):

    drsim run --set node_count=40 --set initial_energy=0.05 --set seed=3 \\
        --set protocol=<dr|leach|leach-c>        -> run-<protocol>.csv
    drsim compare --set node_count=40 --set initial_energy=0.05 \\
        --set seed=3 --set runs=3                -> experiment.csv

and the closed-form sweep at the defaults:

    drsim analytic                               -> analytic.csv

Re-record them only for an intended change of the model's output.
"""

from pathlib import Path

import pytest

from drsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SETTINGS = ["--set", "node_count=40", "--set", "initial_energy=0.05",
            "--set", "seed=3"]


@pytest.mark.parametrize("protocol", ["dr", "leach", "leach-c"])
def test_run_csv_matches_golden(tmp_path, protocol):
    assert main(["run", "--out", str(tmp_path), *SETTINGS,
                 "--set", f"protocol={protocol}"]) == 0
    expected = (GOLDEN / f"run-{protocol}.csv").read_bytes()
    assert (tmp_path / "run.csv").read_bytes() == expected


def test_experiment_csv_matches_golden(tmp_path):
    assert main(["compare", "--out", str(tmp_path), *SETTINGS,
                 "--set", "runs=3"]) == 0
    expected = (GOLDEN / "experiment.csv").read_bytes()
    assert (tmp_path / "experiment.csv").read_bytes() == expected


def test_analytic_csv_matches_golden(tmp_path):
    assert main(["analytic", "--out", str(tmp_path)]) == 0
    expected = (GOLDEN / "analytic.csv").read_bytes()
    assert (tmp_path / "analytic.csv").read_bytes() == expected
