import re
from pathlib import Path

import numpy as np
import pytest

from tubespectra import lowest_eigenvalues
from tubespectra.cli import build_metric, hamiltonian_recipe, main
from tubespectra.config import load_config, load_config_text
from tubespectra.errors import ConfigError
from tubespectra.reporting import extract_embedded_config, strip_generated_line
from conftest import jet_field

STRAIGHT = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = constant
value = 0.0

[cross_section]
shape = interval
half_width = 1.0

[numerics]
s_max = 1000.0
domain_length = 8.0
spacings = 0.2, 0.1
n_eigs = 3
n_thresholds = 10
include_mourre = false
"""

BUMP = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = gaussian-bump
kappa0 = 0.65
sigma = 1.2

[cross_section]
shape = interval
half_width = 1.0

[numerics]
s_max = 1000.0
domain_length = 32.0
spacings = 0.125, 0.0625
n_eigs = 4
n_thresholds = 10
include_mourre = false
"""

CONSTANT = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = constant
value = 0.4

[cross_section]
shape = interval
half_width = 1.0

[numerics]
s_max = 500.0
domain_length = 8.0
spacings = 0.2, 0.1
include_mourre = false
"""

HELIX = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = constant
value = 0.3

[curvature2]
family = constant
value = 0.2

[cross_section]
shape = disc
radius = 0.5

[numerics]
s_max = 100.0
domain_length = 8.0
include_mourre = false

[outputs]
mesh_s_points = 41
mesh_u_points = 8
"""

FLAT_STRIP = """
[problem]
kind = surface-strip
dimension = 2

[curvature]
family = gaussian-bump
kappa0 = 0.65
sigma = 1.2

[cross_section]
shape = interval
half_width = 1.0

[surface]
curvature = 0.0

[numerics]
s_max = 1000.0
domain_length = 32.0
spacings = 0.125, 0.0625
n_eigs = 4
n_thresholds = 10
include_mourre = false
"""

MOURRE = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = constant
value = 0.0

[cross_section]
shape = interval
half_width = 1.0

[numerics]
s_max = 500.0
mourre_domain_length = 24.0
mourre_spacing = 0.125
mourre_tolerance_factor = 0.1
n_thresholds = 10
"""


# the acceptance bent strip at the default s_max = 1e4
BENT_STRIP = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[cross_section]
shape = interval
half_width = 1.0

[numerics]
include_mourre = false
"""


def write(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_straight_tube_spectrum_run(tmp_path, capsys):
    cfg_path = write(tmp_path, STRAIGHT)
    code = main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "no bound state detected" in report
    # every slice but the last is free, so one side has no free end to close
    assert "truncation = probe, no free end on a side\n" in report
    assert repr(np.pi**2 / 4.0) in report
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_with_inline_mourre_windows(tmp_path):
    text = STRAIGHT.replace(
        "include_mourre = false",
        "include_mourre = true\n"
        "mourre_domain_length = 24.0\n"
        "mourre_spacing = 0.125\n"
        "mourre_tolerance_factor = 0.1",
    )
    cfg_path = write(tmp_path, text)
    code = main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "[mourre]" in report
    assert report.count("PASS") >= 3
    assert (tmp_path / "mourre.csv").exists()


def test_bent_tube_spectrum_reports_a_bound_state(tmp_path):
    cfg_path = write(tmp_path, BUMP)
    code = main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "count = 1" in report
    assert "report_sound = True" in report
    levels = re.findall(
        r"^level\[\d\] = L 32\.0, h (\S+), n \d+, nnz \d+, band (\d+), core (\d+)/(\d+), "
        r"shift (\S+), solves (\d+), max_residual (\d\.\de-\d\d)$",
        report, flags=re.M,
    )
    assert [h for h, *_ in levels] == ["0.125", "0.0625"]
    # one slice of transverse nodes: 15 at h = 1/8, 31 at h = 1/16
    assert [int(band) for _, band, *_ in levels] == [15, 31]
    # the bend is factored; the straight ends past it are eliminated in modes
    assert [int(slices) for _, _, _, slices, *_ in levels] == [511, 1023]
    assert all(0 < int(core) < int(slices) for _, _, core, slices, *_ in levels)
    assert all(int(solves) > 0 for *_, solves, _ in levels)
    assert all(float(res) < 1e-8 for *_, res in levels)
    # each certified shift sits below every eigenvalue of its level
    ladder = re.search(r"^state\[1\]\.ladder = (.*)$", report, flags=re.M).group(1)
    # the closure brackets the infinitely long tube's value at h = 1/8 below the box's
    root, lower = re.search(r"^truncation = closure, root (\S+), lower (\S+)$", report,
                            flags=re.M).groups()
    assert float(lower) < float(root) < float(ladder.split(", ")[0])
    truncation = re.search(r"^state\[1\]\.truncation_error = (\S+)$", report, flags=re.M)
    assert float(truncation.group(1)) == pytest.approx(
        float(ladder.split(", ")[0]) - float(lower), rel=5e-3)
    assert all(float(sig) < float(v)
               for (*_, sig, _, _), v in zip(levels, ladder.split(", ")))
    # the finer level starts from the coarser level's eigenvectors: fewer
    # solves than a cold start on the same operator at the same hint
    cfg = load_config_text(BUMP)
    omega = cfg.cross_section()
    recipe = hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)
    cold = lowest_eigenvalues(recipe(32.0, 0.0625), cfg.n_eigs, below=float(ladder.split(", ")[0]))
    assert cold.shift == float(levels[1][4])
    assert int(levels[1][5]) < cold.solves


def test_warm_started_ladder_matches_cold_solves(tmp_path):
    from tubespectra.cli import run_spectrum

    cfg = load_config_text(BUMP)
    report, code = run_spectrum(cfg, str(tmp_path))
    assert code == 0
    result = report.bound_states
    # (L, h0) is the only solve at the coarsest spacing: its closure bounds the truncation
    assert result.truncation == "closure"
    assert result.truncation_ladder == ((cfg.domain_length, result.raw_ladder[0][0]),)
    omega = cfg.cross_section()
    recipe = hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)
    # every level solved again from the fixed start vector, shift -1
    for h, row in zip(cfg.spacings, result.raw_ladder):
        cold, _ = lowest_eigenvalues(recipe(cfg.domain_length, h), cfg.n_eigs)
        np.testing.assert_allclose(row, cold, rtol=1e-12, atol=0.0)


def test_warm_started_probes_match_cold_solves(tmp_path):
    from tubespectra.cli import run_spectrum

    # a power tail leaves no free end to close: the probes at L/4 and L/2
    # run after the ladder, each started from (L, h0)'s eigenvectors
    text = BUMP.replace("family = gaussian-bump\nkappa0 = 0.65\nsigma = 1.2",
                        "family = power-tail\nkappa0 = 0.5\nsigma = 1.0\np = 2.5")
    cfg = load_config_text(text.replace("domain_length = 32.0", "domain_length = 16.0"))
    report, code = run_spectrum(cfg, str(tmp_path))
    assert code == 0
    result = report.bound_states
    assert (result.truncation, result.probe_reason) == ("probe", "no free end on a side")
    omega = cfg.cross_section()
    recipe = hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)
    assert [ell for ell, _ in result.truncation_ladder] == [4.0, 8.0, 16.0]
    for ell, value in result.truncation_ladder:
        cold, _ = lowest_eigenvalues(recipe(ell, cfg.spacings[0]), cfg.n_eigs)
        np.testing.assert_allclose(value, cold[0], rtol=1e-12, atol=0.0)


def test_a_closure_root_with_no_state_is_not_resolved(tmp_path):
    # the acceptance bent strip in a box of L = 16: its extrapolated value
    # does not clear its bar, but the closure of the h = 1/8 box bounds an
    # eigenvalue of the infinitely long discrete tube below nu_1(h)
    text = BENT_STRIP.replace(
        "include_mourre = false",
        "domain_length = 16.0\nspacings = 0.125, 0.0625\nn_eigs = 4\ninclude_mourre = false")
    code = main(["spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "count = 0" in report and "no bound state detected" not in report
    verdict = re.search(r"^verdict = (.*)$", report, flags=re.M).group(1)
    assert verdict == ("not resolved: the closure at the coarsest spacing bounds a discrete "
                       "bound state below nu_1(h), but no extrapolated value lies below nu_1 "
                       "by more than its error")
    root, lower = map(float, re.search(r"^truncation = closure, root (\S+), lower (\S+)$",
                                       report, flags=re.M).groups())
    assert lower < root < 2.4594841083864765  # nu_1(h) at h = 1/8


def test_flat_strip_config_matches_the_euclidean_run(tmp_path):
    from tubespectra.config import load_config_text
    from tubespectra.cli import run_spectrum

    flat, code_a = run_spectrum(load_config_text(FLAT_STRIP), str(tmp_path / "strip"))
    tube, code_b = run_spectrum(load_config_text(BUMP), str(tmp_path / "tube"))
    assert code_a == code_b == 0
    sa = flat.bound_states.states
    sb = tube.bound_states.states
    assert len(sa) == len(sb) == 1
    # h = 1 - kappa u in closed form on both paths: the same operators
    assert flat.bound_states.raw_ladder == tube.bound_states.raw_ladder


def test_flat_strip_check_passes_at_the_default_s_max(tmp_path, capsys, monkeypatch):
    from tubespectra.metric import SurfaceStripMetric

    def refuse(self, s_values):
        raise AssertionError("constant Gauss curvature reached the RK4 sweep")

    # [surface] curvature = <number> takes the closed form, never the sweep
    monkeypatch.setattr(SurfaceStripMetric, "_sweep", refuse)
    # the gate's samples must reach the bump at s = 0, not only the tails
    text = FLAT_STRIP.replace("s_max = 1000.0\n", "")
    code = main(["check", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr()


def test_focal_point_inside_a_curved_strip_exits_1(tmp_path, capsys):
    text = (
        FLAT_STRIP.replace("curvature = 0.0", "curvature = 3.0")
        .replace("kappa0 = 0.65\nsigma = 1.2", "kappa0 = 0.5\nsigma = 1.0")
        .replace("s_max = 1000.0\n", "")
    )
    code = main(["check", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 1
    assert "focal point" in capsys.readouterr().err


def test_bent_strip_coefficient_bounds_are_exact(tmp_path):
    from tubespectra.cli import run_check

    report, code = run_check(load_config_text(BENT_STRIP), str(tmp_path))
    assert code == 0
    coeffs = report.assumption_reports["coefficients"]
    # c- = 1 - 0.5 and c+ = 1 + 0.5 give C- = 1/c+^2 and C+ = 1/c-^2
    bounds = re.fullmatch(r"C-=(\S+) C\+=(\S+)", coeffs.entry("G-bounds").notes)
    assert tuple(map(float, bounds.groups())) == pytest.approx((1 / 1.5**2, 1 / 0.5**2))
    div = re.fullmatch(r"sup=(\S+)", coeffs.entry("G-divergence-bounded").notes)
    assert float(div.group(1)) > 1.0


def test_check_loads_no_sampler_module(tmp_path):
    # importing scipy.stats costs about 0.6 s and 20 MB per process
    import os
    import subprocess
    import sys

    import tubespectra

    src = os.path.dirname(os.path.dirname(tubespectra.__file__))
    path = write(tmp_path, BENT_STRIP)
    code = (
        "import sys\n"
        "from tubespectra.cli import run_check\n"
        "from tubespectra.config import load_config\n"
        f"_, exit_code = run_check(load_config({path!r}), {str(tmp_path)!r})\n"
        "assert exit_code == 0, exit_code\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=300)


def test_loading_the_benchmark_problem_files_imports_no_heavy_scipy_module(tmp_path):
    # the interpreter, the imports and load_config are every run's set-up: a
    # scipy subpackage they import costs each process tenths of a second
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tubespectra

    src = os.path.dirname(os.path.dirname(tubespectra.__file__))
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.interpolate", "scipy.optimize",
             "scipy.special", "scipy.integrate", "scipy.stats")
    code = (
        "import sys\n"
        "from tubespectra import cli, config\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import workloads\n"
        "for name, ini in (('bent', workloads.bent_strip_ini()),\n"
        "                  ('rect', workloads.rect_tube_ini())):\n"
        f"    path = {str(tmp_path)!r} + '/' + name + '.ini'\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(ini)\n"
        "    config.load_config(path)\n"
        f"loaded = [name for name in {heavy!r} if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=300)


def test_importing_the_cli_binds_no_lapack_and_starts_no_thread():
    # set-up is the interpreter and the imports: the LAPACK binding and the
    # solver's worker thread wait for the first factorization that needs them
    import os
    import subprocess
    import sys

    import tubespectra

    src = os.path.dirname(os.path.dirname(tubespectra.__file__))
    code = (
        "import sys, threading\n"
        "import tubespectra.cli\n"
        "from tubespectra import spectral\n"
        "assert 'scipy.linalg' not in sys.modules and 'tubespectra._lapack' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "import scipy.sparse as sp\n"
        "spectral.lowest_eigenvalues(sp.diags([1.0, 2.0, 3.0, 4.0]), 1)\n"
        "assert 'tubespectra._lapack' in sys.modules\n"
        "assert threading.active_count() == 1  # too small a band for the worker\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=300)


def test_curvature_bound_breach_exits_1_with_the_product(tmp_path, capsys):
    text = BENT_STRIP.replace("kappa0 = 0.5\nsigma = 1.0", "kappa0 = 1.2\nsigma = 0.25")
    code = main(["check", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 1
    assert "a * sup|kappa_1| = 1.2 >= 1" in capsys.readouterr().err


def test_constant_curvature_check_exits_2(tmp_path, capsys):
    cfg_path = write(tmp_path, CONSTANT)
    code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "fail" in out


def test_constant_curvature_spectrum_gate_blocks_without_force(tmp_path):
    cfg_path = write(tmp_path, CONSTANT)
    assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_helix_export_mesh_layout(tmp_path):
    cfg_path = write(tmp_path, HELIX)
    code = main(["export", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mesh.txt").read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) - 1 == 41 * 8
    assert (tmp_path / "mesh_metric.csv").exists()


def test_mourre_subcommand_all_windows_pass(tmp_path, capsys):
    cfg_path = write(tmp_path, MOURRE)
    code = main(["mourre", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    rows = [l for l in out.strip().split("\n") if l.startswith("lambda=")]
    assert len(rows) == 3
    assert all("PASS" in r for r in rows)
    csv_lines = (tmp_path / "mourre.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 4  # header + three windows


SQUARE_SMOKE = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[curvature2]
family = gaussian-bump
kappa0 = 0.3
sigma = 1.0

[cross_section]
shape = rectangle
side_x = 1.0
side_y = 1.0

[numerics]
s_max = 100.0
domain_length = 4.0
spacings = 0.25, 0.125
n_eigs = 2
include_mourre = true
mourre_windows = 49.3
"""


def test_mourre_refusal_after_the_ladder_keeps_the_report(tmp_path, capsys):
    # a window that passes the thresholds at load but holds no mode of the
    # Mourre grid is refused only when the check runs, after the ladder
    text = SQUARE_SMOKE.replace(
        "mourre_windows = 49.3",
        "mourre_windows = 30.0\nmourre_epsilon_factor = 1e-6\n"
        "mourre_domain_length = 4.0\nmourre_spacing = 0.25",
    )
    cfg_path = write(tmp_path, text)
    code = main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().out.strip().endswith("; exit 3")
    report = (tmp_path / "report.txt").read_text()
    assert "[bound_states]" in report and "level[2] = L 4.0, h 0.125" in report
    mourre = report.split("[mourre]\n", 1)[1].split("\n", 1)[0]
    assert mourre == ("error = no interior spectral content in (30, 30); "
                      "enlarge the domain length L")
    assert (tmp_path / "spectrum.csv").exists()
    assert not (tmp_path / "mourre.csv").exists()


@pytest.mark.parametrize(
    "window, message",
    [
        # nu_1 = 2 pi^2 = 19.74
        ("15.0", r"window centre 15 below the first threshold: the bound is vacuous there"),
        # 0.048 below nu_2 = 49.348, inside its 2.2 margin
        ("49.3", r"window at 49\.3 sits within 0\.0480\d* of a threshold "
                 r"\(margin 2\.21\d*\): rho jumps there, refuse"),
    ],
    ids=["below-nu1", "at-a-threshold"],
)
def test_config_refuses_a_bad_explicit_mourre_window(tmp_path, capsys, window, message):
    text = SQUARE_SMOKE.replace("mourre_windows = 49.3", f"mourre_windows = {window}")
    with pytest.raises(ConfigError, match=r"^\[numerics\] mourre_windows: " + message):
        load_config_text(text)
    # refused before the ladder: no report, config exit code
    for command in ("spectrum", "mourre"):
        code = main([command, "--config", write(tmp_path, text), "--out", str(tmp_path)])
        assert code == 1 and not (tmp_path / "report.txt").exists()
        assert "config error: [numerics] mourre_windows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spacing, message",
    [
        ("0.0", "config error: [numerics] mourre_spacing must be positive"),
        ("0.3", "error: spacing 0.3 does not tile the interval of half-length 32.0"),
        ("0.25", "error: grid too coarse: 7 interior transverse nodes (need at least 8)"),
    ],
    ids=["zero", "not-tiling", "too-coarse"],
)
def test_spectrum_refuses_a_bad_mourre_grid_before_the_ladder(tmp_path, capsys, monkeypatch,
                                                                spacing, message):
    from tubespectra import spectral

    solves = []
    monkeypatch.setattr(spectral, "lowest_eigenvalues", lambda *a, **k: solves.append(a))
    text = STRAIGHT.replace("include_mourre = false",
                            f"include_mourre = true\nmourre_spacing = {spacing}")
    code = main(["spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.strip() == message and "Traceback" not in err
    assert not solves and not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mourre_domain_length", "0.0", "must be positive"),
        ("mourre_epsilon_factor", "-0.05", "must be positive"),
        ("mourre_tolerance_factor", "-0.01", "must not be negative"),
    ],
)
def test_config_refuses_mourre_controls_out_of_range(key, value, message):
    with pytest.raises(ConfigError, match=rf"^\[numerics\] {key} {message}$"):
        load_config_text(STRAIGHT.replace("n_eigs = 3", f"n_eigs = 3\n{key} = {value}"))


@pytest.mark.parametrize(
    "text, message",
    [
        (STRAIGHT.replace("shape = interval\nhalf_width = 1.0", "shape = disc\nradius = 0.5"),
         "shape = disc is 2-dimensional, but dimension = 2 needs a 1-dimensional"),
        (HELIX.replace("shape = disc\nradius = 0.5", "shape = interval\nhalf_width = 0.5"),
         "shape = interval is 1-dimensional, but dimension = 3 needs a 2-dimensional"),
        (HELIX.replace("dimension = 3", "dimension = 4")
         .replace("[cross_section]", "[curvature3]\nfamily = constant\nvalue = 0.1\n\n"
                  "[cross_section]")
         .replace("shape = disc\nradius = 0.5", "shape = rectangle\nside_x = 1.0\nside_y = 1.0"),
         "shape = rectangle is 2-dimensional, but dimension = 4 needs a 3-dimensional"),
        (FLAT_STRIP.replace("shape = interval\nhalf_width = 1.0", "shape = disc\nradius = 0.5"),
         "shape = disc is 2-dimensional, but dimension = 2 needs a 1-dimensional"),
    ],
    ids=["disc-in-d2", "interval-in-d3", "rectangle-in-d4", "disc-strip"],
)
def test_config_refuses_a_cross_section_of_the_wrong_dimension(text, message):
    # no gate check sees the cross-section's dimension: refuse it on loading
    with pytest.raises(ConfigError, match=rf"^\[cross_section\] {message} cross-section$"):
        load_config_text(text)


def test_config_refuses_the_removed_wall_mass_key(tmp_path, capsys):
    # an old report's embedded config still sets it: refuse, do not ignore
    text = MOURRE.replace("n_thresholds = 10", "n_thresholds = 10\nmourre_wall_mass_tol = 0.01")
    with pytest.raises(ConfigError, match=r"^\[numerics\] mourre_wall_mass_tol is no longer"):
        load_config_text(text)
    code = main(["mourre", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 1 and "mourre_wall_mass_tol" in capsys.readouterr().err


def test_default_mourre_windows_need_three_distinct_thresholds():
    from tubespectra import ThresholdSet, WindowError
    from tubespectra.cli import default_mourre_windows

    double = ThresholdSet((1.0, 2.0, 2.0, 2.0), ("analytic",) * 4)
    with pytest.raises(WindowError, match="need 3 distinct thresholds, got 2"):
        default_mourre_windows(double)


def test_unit_square_default_mourre_windows_pass(tmp_path, capsys):
    # the defaults sit between the distinct thresholds 19.74, 49.35 (double)
    # and 78.96, so none lands on nu_2 = nu_3
    cfg_path = write(tmp_path, SQUARE_SMOKE.replace("mourre_windows = 49.3\n", ""))
    code = main(["mourre", "--config", cfg_path, "--out", str(tmp_path)])
    rows = [l for l in capsys.readouterr().out.split("\n") if l.startswith("lambda=")]
    assert code == 0
    assert [r.split()[0] for r in rows] == [
        "lambda=28.6219", "lambda=40.4654", "lambda=61.1915"]
    assert all(r.endswith("PASS") for r in rows)


DISC_MOURRE = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = constant
value = 0.0

[curvature2]
family = constant
value = 0.0

[cross_section]
shape = disc
radius = 1.0

[numerics]
mourre_domain_length = 32.0
mourre_spacing = 0.0625
mourre_windows = 8.0, 12.0, 20.0
"""


def test_disc_mourre_at_full_length_and_fine_spacing_completes(tmp_path, capsys):
    # about 820,000 unknowns: a factorization here used to run out of memory
    cfg_path = write(tmp_path, DISC_MOURRE)
    code = main(["mourre", "--config", cfg_path, "--out", str(tmp_path)])
    rows = [l for l in capsys.readouterr().out.split("\n") if l.startswith("lambda=")]
    assert code == 0
    assert len(rows) == 3 and all(r.endswith("PASS") for r in rows)


def test_reports_are_reproducible(tmp_path):
    cfg_path = write(tmp_path, BUMP)
    main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "b")])
    a = strip_generated_line((tmp_path / "a" / "report.txt").read_text())
    b = strip_generated_line((tmp_path / "b" / "report.txt").read_text())
    assert a == b


def test_report_embeds_a_round_trippable_config(tmp_path):
    cfg_path = write(tmp_path, BUMP)
    main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "a")])
    text = (tmp_path / "a" / "report.txt").read_text()
    embedded = extract_embedded_config(text)
    cfg2_path = tmp_path / "embedded.ini"
    cfg2_path.write_text(embedded)
    main(["spectrum", "--config", str(cfg2_path), "--out", str(tmp_path / "b")])
    b = (tmp_path / "b" / "report.txt").read_text()
    assert strip_generated_line(text) == strip_generated_line(b)


def test_config_errors_carry_section_and_field(tmp_path, capsys):
    bad = STRAIGHT.replace("half_width = 1.0", "half_width = wide")
    code = main(["spectrum", "--config", write(tmp_path, bad), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cross_section" in err and "half_width" in err

    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, STRAIGHT.replace("[curvature]", "[warp]"), "b.ini"))
    assert "curvature" in str(exc.value)

    missing_table = STRAIGHT.replace(
        "family = constant\nvalue = 0.0", "family = table\nfile = nope.txt"
    )
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, missing_table, "c.ini"))
    assert "nope.txt" in str(exc.value)


@pytest.mark.parametrize(
    "old, new",
    [
        ("n_eigs = 3", "n_eigs = 0"),
        ("n_thresholds = 10", "n_thresholds = 0"),
        # the default Mourre windows need nu_3
        ("n_thresholds = 10\ninclude_mourre = false", "n_thresholds = 2\ninclude_mourre = true"),
    ],
)
def test_config_rejects_counts_the_run_cannot_use(old, new):
    with pytest.raises(ConfigError) as exc:
        load_config_text(STRAIGHT.replace(old, new))
    field = new.split(" =")[0]
    assert str(exc.value).startswith(f"[numerics] {field}")


def test_config_refuses_default_mourre_windows_on_a_double_threshold(tmp_path):
    # the unit square's first three thresholds are 19.74 and the double 49.35
    text = SQUARE_SMOKE.replace("mourre_windows = 49.3\n", "n_thresholds = 3\n")
    with pytest.raises(ConfigError, match=r"^\[numerics\] n_thresholds = 3 gives 2 distinct"):
        load_config_text(text)
    code = main(["spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    assert code == 1 and not (tmp_path / "report.txt").exists()
    assert load_config_text(text.replace("n_thresholds = 3", "n_thresholds = 4")).n_thresholds == 4


def test_config_accepts_two_thresholds_with_explicit_mourre_windows():
    cfg = load_config_text(
        STRAIGHT.replace(
            "n_thresholds = 10\ninclude_mourre = false",
            "n_thresholds = 2\ninclude_mourre = true\nmourre_windows = 4.7",
        )
    )
    assert cfg.n_thresholds == 2 and cfg.mourre_windows == (4.7,)


def test_table_curvature_round_trip(tmp_path):
    s = np.linspace(-30, 30, 1201)
    np.savetxt(tmp_path / "kappa.txt", np.stack([s, 0.65 * np.exp(-((s / 1.2) ** 2))], axis=1))
    text = BUMP.replace(
        "family = gaussian-bump\nkappa0 = 0.65\nsigma = 1.2",
        "family = table\nfile = kappa.txt",
    )
    cfg = load_config(write(tmp_path, text))
    profile = cfg.profile()
    assert profile.s_range == (-30.0, 30.0)
    assert profile.kappa(1, 0.0) == pytest.approx(0.65, abs=1e-9)



def _bump_table(tmp_path, lo, hi):
    s = np.linspace(lo, hi, int(round(10 * (hi - lo))) + 1)
    np.savetxt(tmp_path / "kappa.txt", np.stack([s, 0.3 * np.exp(-(s**2))], axis=1))
    return "family = table\nfile = kappa.txt"


def test_asymmetric_table_keeps_every_window_inside_its_s_range(tmp_path, capsys):
    # every s-window must stay inside [-20, 60]: mirroring the upper end
    # gives [-36, 36], which the frame integration refuses (exit 1)
    text = BENT_STRIP.replace(
        "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.0", _bump_table(tmp_path, -20.0, 60.0)
    )
    code = main(["check", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "error" not in captured.err
    assert "basic: pass" in captured.out
    # the decay ladder scales with the shorter side (R <= 10), inside the
    # bump: no power law fits there, so the rate fits cannot tell
    report = (tmp_path / "report.txt").read_text()
    assert "[curvature-decay-rate] kind=decay verdict=inconclusive" in report
    assert code == 2


def test_d3_table_wider_than_s_max_samples_the_rotation_over_the_table(tmp_path, capsys):
    # a table on [-100, 100] with s_max = 50: the gate samples all of the
    # table, so the rotation must cover it, not just +-max(s_max, 1.25 L)
    text = RECT_TUBE.replace(
        "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.0", _bump_table(tmp_path, -100.0, 100.0)
    ).replace("domain_length = 16.0", "s_max = 50.0")
    code = main(["check", "--config", write(tmp_path, text), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "error" not in captured.err
    assert code == 0


def _surface_table(tmp_path, half_width, K):
    s, u = np.meshgrid(np.linspace(-40.0, 40.0, 81), np.linspace(-half_width, half_width, 5),
                       indexing="ij")
    np.savetxt(tmp_path / "K.txt", np.stack([s.ravel(), u.ravel(), np.full(s.size, K)], axis=1))
    return FLAT_STRIP.replace(
        "family = gaussian-bump\nkappa0 = 0.65\nsigma = 1.2", _bump_table(tmp_path, -40.0, 40.0)
    ).replace("curvature = 0.0", "file = K.txt")


def test_surface_table_strip_runs_the_gate(tmp_path, capsys):
    # the metric's s-differences must not reach past the tabulated kappa
    cfg_path = write(tmp_path, _surface_table(tmp_path, 1.0, 0.0))
    code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.split() == ["basic:", "pass", "metric-decay:", "pass",
                                    "coefficients:", "pass"]
    assert code == 0


def test_surface_table_narrower_than_the_strip_exits_1(tmp_path, capsys):
    # K is tabulated on |u| <= 0.5 only: it must not read 0 across the rest
    cfg_path = write(tmp_path, _surface_table(tmp_path, 0.5, 0.4))
    code = main(["check", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 1
    assert re.search(r"K\.txt' does not cover \(s=-?[\d.]+, u=0\.50\d*\)",
                     capsys.readouterr().err)


def test_readme_ini_block_loads_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = load_config_text(block)
    again = load_config_text(cfg.render())
    assert again == cfg
    assert again.render() == cfg.render()


RECT_TUBE = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[curvature2]
family = gaussian-bump
kappa0 = 0.3
sigma = 1.0

[cross_section]
shape = rectangle
side_x = 1.0
side_y = 1.0

[numerics]
domain_length = 16.0
"""


@pytest.mark.xfail(
    strict=True,
    reason="build_metric samples the rotation 9.77 apart at the default "
    "s_max = 1e4, across a curvature bump of width 1: h is off by ~2e-2",
)
def test_d3_metric_resolves_the_rotation_across_the_curvature_bump():
    from tubespectra.cli import build_metric
    from tubespectra.frames import integrate_tang_rotation
    from tubespectra.metric import metric_from_frames

    cfg = load_config_text(RECT_TUBE)
    profile, omega = cfg.profile(), cfg.cross_section()
    metric = build_metric(cfg, profile, omega)
    rotation = integrate_tang_rotation(profile, np.linspace(-20.0, 20.0, 4001))
    fine = metric_from_frames(profile, rotation, omega.a)
    s = np.array([-1.0, 1.0])
    u = np.full((2, 2), 0.5)
    assert np.allclose(jet_field(metric, "h", s, u), jet_field(fine, "h", s, u),
                       rtol=0.0, atol=1e-6)
