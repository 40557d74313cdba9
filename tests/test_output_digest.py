import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"

OLD = """seed=0 rect-tube spectrum exit=0
seed=0 rect-tube spectrum state[1].value = 19.5, 0.0
seed=0 rect-tube spectrum count = 4
"""


def _compare(tmp_path, new, rtol):
    (tmp_path / "old.txt").write_text(OLD)
    (tmp_path / "new.txt").write_text(new)
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(tmp_path / "old.txt"),
         str(tmp_path / "new.txt"), "--rtol", rtol],
        capture_output=True, text=True,
    )


def test_compare_reports_the_largest_move_per_key_against_the_tolerance(tmp_path):
    moved = OLD.replace("19.5, 0.0", "19.500000000000004, 0.0")
    within = _compare(tmp_path, moved, "1e-13")
    assert within.returncode == 0
    lines = within.stdout.splitlines()
    assert lines[0] == "1.82e-16 seed=0 rect-tube spectrum state[1].value"
    assert lines[-1] == "3 lines, largest relative move 1.82e-16 (rtol 1e-13)"
    assert _compare(tmp_path, moved, "1e-16").returncode == 1
    assert _compare(tmp_path, OLD, "0").returncode == 0


def test_compare_refuses_outputs_that_list_other_keys_or_exit_codes(tmp_path):
    assert _compare(tmp_path, OLD.replace("exit=0", "exit=1"), "1").returncode == 1
    assert _compare(tmp_path, OLD.replace("19.5, 0.0", "19.5"), "1").returncode == 1
    assert _compare(tmp_path, OLD + OLD.splitlines()[1] + "\n", "1").returncode == 1
