import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"

OLD = """seed=0 rect-tube spectrum exit=0
seed=0 rect-tube spectrum state[1].value = 19.5, 0.0
seed=0 rect-tube spectrum count = 4
"""


def _compare(tmp_path, new, rtol, old=OLD, atol=None):
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(tmp_path / "old.txt"),
         str(tmp_path / "new.txt"), "--rtol", rtol] + (["--atol", atol] if atol else []),
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


# two keys that are differences of ladder values, moved by a few-ulp move of those values
DIFFERENCES = """seed=0 bent-strip spectrum state[1].fitted_order = {order}
seed=0 bent-strip spectrum spectrum.csv[4].error = {error}
"""
BEFORE = DIFFERENCES.format(order="1.9982857333294244", error="1.4777560688752e-4")
AFTER = DIFFERENCES.format(order="1.9982857333269457", error="1.4777560689088e-4")


def test_compare_lets_a_number_move_by_atol_whatever_its_relative_move(tmp_path):
    # relative moves 1.2e-12 and 2.3e-11, absolute 2.5e-12 and 3.4e-15
    assert _compare(tmp_path, AFTER, "1e-13", old=BEFORE).returncode == 1
    within = _compare(tmp_path, AFTER, "1e-13", old=BEFORE, atol="1e-11")
    assert within.returncode == 0
    lines = within.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["1.24e-12", "2.27e-11"]
    assert lines[-1] == "2 lines, largest relative move 2.27e-11 (rtol 1e-13, atol 1e-11)"
    # fitted_order moved by more than 1e-12, the error bar by less
    assert _compare(tmp_path, AFTER, "1e-13", old=BEFORE, atol="1e-12").returncode == 1
    assert _compare(tmp_path, AFTER, "1e-11", old=BEFORE, atol="1e-12").returncode == 0
    assert _compare(tmp_path, AFTER, "0", old=BEFORE, atol="3e-12").returncode == 0


# a roundoff-sized residual moves by far the most, relatively, of the three
RESIDUALS = """seed=0 bent-strip spectrum level[1].shift = {shift}
seed=0 bent-strip spectrum level[1].max_residual = {residual}
seed=0 bent-strip spectrum state[1].value = 2.25, 0.0
"""


def test_compare_names_the_largest_move_and_the_largest_above_atol(tmp_path):
    old = RESIDUALS.format(shift="2.4565911420521216", residual="5.8e-14")
    new = RESIDUALS.format(shift="2.456591142052125", residual="3.1e-14")
    within = _compare(tmp_path, new, "1e-13", old=old, atol="1e-11")
    assert within.returncode == 0
    lines = within.stdout.splitlines()
    assert lines[:2] == ["1.45e-15 seed=0 bent-strip spectrum level[1].shift",
                         "0.466 seed=0 bent-strip spectrum level[1].max_residual"]
    assert lines[2] == ("largest relative move 0.466 at "
                        "seed=0 bent-strip spectrum level[1].max_residual")
    assert lines[3] == ("largest relative move of values above atol 1e-11: 1.45e-15 at "
                        "seed=0 bent-strip spectrum level[1].shift")
    assert lines[-1] == "3 lines, largest relative move 0.466 (rtol 1e-13, atol 1e-11)"
    # with nothing moved, no key is named
    assert _compare(tmp_path, old, "0", old=old).stdout.splitlines() == [
        "3 lines, largest relative move 0 (rtol 0)"]


REPORT = """[bound_states]
count = 1
verdict = no bound state detected
level[1] = L 16.0, h 0.125, n 3825, band 15, core 97/255, shift 2.449005424566939, max_residual 1.0e-13
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
        "level[1].band = 15", "level[1].core = 97", "level[1].slices = 255",
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


def test_every_curvature_family_and_surface_form_has_its_own_call():
    sys.path.insert(0, str(TOOL.parent))
    import output_digest

    calls = [call for _, call in output_digest.pipeline_calls()]
    marks = {"table-strip": "family = table\nfile = kappa.txt",
             "planar-rect-tube": "family = constant\nvalue = 0.0",
             "surface-file-strip": "[surface]\nfile = K.txt",
             "curved-strip-positive": "[surface]\ncurvature = 0.1",
             "curved-strip-negative": "[surface]\ncurvature = -0.1",
             "given-length-power-tail": "family = power-tail"}
    for label, mark in marks.items():
        (call,) = [c for c in calls if c.label == label]
        assert mark in call.ini
    (call,) = [c for c in calls if c.label == "given-length-power-tail"]
    assert "domain_length = 16.0" in call.ini and call.kind == "spectrum"
    # every table a problem file names is written beside it
    for call in calls:
        for name in re.findall(r"^file = (\S+)$", call.ini, flags=re.M):
            assert name in call.files


def test_values_name_the_truncation_path_and_its_bracket(tmp_path):
    sys.path.insert(0, str(TOOL.parent))
    import output_digest

    closed = ("truncation = closure, root 2.4582043237989066, lower 2.4582043233679727\n"
              "verdict = not resolved: the closure at the coarsest spacing bounds a discrete "
              "bound state below nu_1(h), but no extrapolated value lies below nu_1 by more "
              "than its error\n")
    assert output_digest.report_values(closed) == [
        "truncation=closure", "truncation.root = 2.4582043237989066",
        "truncation.lower = 2.4582043233679727",
    ]
    probed = "truncation = probe, root 2.28, an index above 0 has a closure root below nu_1(h)\n"
    assert output_digest.report_values(probed) == ["truncation=probe", "truncation.root = 2.28"]
    # a path or a bracket that one output lacks fails the comparison, and the
    # keys both list are still compared
    old = "seed=0 x spectrum truncation=probe\nseed=0 x spectrum count = 1\n"
    new = ("seed=0 x spectrum truncation=closure\nseed=0 x spectrum truncation.root = 2.0\n"
           "seed=0 x spectrum count = 2\n")
    out = _compare(tmp_path, new, "0", old=old)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[:3] == [f"only in {tmp_path / 'old.txt'}: seed=0 x spectrum truncation=probe",
                         f"only in {tmp_path / 'new.txt'}: seed=0 x spectrum truncation=closure",
                         f"only in {tmp_path / 'new.txt'}: seed=0 x spectrum truncation.root"]
    assert lines[3] == "0.5 seed=0 x spectrum count"
