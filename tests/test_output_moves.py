"""The script that compares two copies of the package on perfbench's tables."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_against_itself_moves_nothing():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_moves.py"), src, src, "--seeds", "1",
         "--workloads", "sample"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = ("cbn.json", "lgbn.json", "cbn.scores.csv", "lgbn.scores.csv", "sample.csv")
    assert done.stdout.splitlines() == [f"sample seed 1 {name}: identical" for name in names]


def test_a_moved_output_names_its_dag_changes_and_largest_moves(tmp_path):
    spec = importlib.util.spec_from_file_location("output_moves", ROOT / "scripts" / "output_moves.py")
    output_moves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_moves)
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text('{"version": 1, "parents": [[], [0], []], "rho": [null, 0.5, null]}')
    change.write_text('{"version": 1, "parents": [[], [], [1]], "rho": [null, null, 0.25]}')
    assert output_moves.describe(parent, change) == (
        "DAG gains 1->2; loses 0->1; largest move 0.25 absolute, 0.5 relative"
    )
    change.write_text('{"version": 1, "parents": [[], [0], [0]], "rho": [null, 0.5, 0.5]}')
    assert output_moves.describe(parent, change) == "DAG gains 0->2; loses none; 2 numbers became 3"
    parent.write_text('{"version": 1, "parents": [[], [0]], "rho": [null, 0.5]}')
    change.write_text('{"version": 1, "parents": [[], [0]], "rho": [null, 0.4]}')
    assert output_moves.describe(parent, change) == "same DAG; largest move 0.1 absolute, 0.2 relative"
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("row_index,log_score\n0,-2.0\n1,4.0\n")
    change.write_text("row_index,log_score\n0,-2.0\n1,3.0\n")
    assert output_moves.describe(parent, change) == "largest move 1 absolute, 0.25 relative"
    assert output_moves.describe(parent, parent) == "identical"


def test_a_moved_score_file_gives_each_sides_mean_over_rows_finite_on_both(tmp_path):
    spec = importlib.util.spec_from_file_location("output_moves", ROOT / "scripts" / "output_moves.py")
    output_moves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_moves)
    parent, change = tmp_path / "lgbn.scores.csv", tmp_path / "change.scores.csv"
    # Row 2 is -inf on the change's side and row 3 on the parent's, so only rows 0 and 1 count.
    parent.write_text("row_index,log_score\n0,-2.0\n1,4.0\n2,1.0\n3,-inf\n")
    change.write_text("row_index,log_score\n0,-1.5\n1,4.0\n2,-inf\n3,7.0\n")
    assert output_moves.mean_scores(parent, change) == (1.0, 1.25, 2)
    assert output_moves.describe(parent, change) == (
        "largest move inf absolute, inf relative; "
        "mean score 1.000000 -> 1.250000 (+0.250000) over 2 rows finite on both sides"
    )
    change.write_text("row_index,log_score\n0,-inf\n1,4.0\n2,1.0\n3,-inf\n")
    assert output_moves.describe(parent, change).endswith(
        "mean score 2.500000 -> 2.500000 (+0.000000) over 2 rows finite on both sides"
    )
