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


REPORT = """[bound_states]
count = 1
verdict = no bound state detected
level[1] = L 16.0, h 0.125, n 3825, shift 2.449005424566939, max_residual 1.0e-13
[mourre]
window[1] = center 4.7, eps 0.11, measured 4.324995217608661, states 2, PASS
[assumptions.basic]
[basic-ellipticity] kind=bounded verdict=pass quantity=c- <= h <= c+
  notes: c-=0.5 c+=1.5
[decay[k1]] kind=decay verdict=pass quantity=k1
  fit: C=None theta=1.0 residual=None
  R=5000.0 sup=0.0
"""

MOURRE_CSV = b"""center,half_width,rho,expected,measured,n_states,passed
4.7,0.11,2.23,4.46,4.324995217608661,2,True
"""


def test_values_split_every_numeric_field_into_its_own_key():
    sys.path.insert(0, str(TOOL.parent))
    import output_digest

    assert output_digest.report_values(REPORT) == [
        "count = 1",
        "level[1].L = 16.0", "level[1].h = 0.125", "level[1].n = 3825",
        "level[1].shift = 2.449005424566939", "level[1].max_residual = 1.0e-13",
        "window[1].center = 4.7", "window[1].eps = 0.11",
        "window[1].measured = 4.324995217608661", "window[1].states = 2",
        "basic-ellipticity.notes.c- = 0.5", "basic-ellipticity.notes.c+ = 1.5",
        "decay[k1].fit.theta = 1.0", "decay[k1].R = 5000.0", "decay[k1].sup = 0.0",
    ]
    assert output_digest.csv_values("mourre.csv", MOURRE_CSV) == [
        "mourre.csv[1].center = 4.7", "mourre.csv[1].half_width = 0.11",
        "mourre.csv[1].rho = 2.23", "mourre.csv[1].expected = 4.46",
        "mourre.csv[1].measured = 4.324995217608661", "mourre.csv[1].n_states = 2",
    ]
