"""The problem-file grammar: its rendered form, round trips and refusals."""

import numpy as np
import pytest

from tubespectra.cli import main
from tubespectra.config import load_config, load_config_text
from tubespectra.errors import ConfigError

# sets every key; values written unlike their canonical form where they can be
EVERY_KEY = """
[problem]
kind = surface-strip
dimension = 2

[curvature]
family = power-tail
kappa0 = 0.5
sigma = 2
p = 3

[cross_section]
shape = interval
half_width = 1

[surface]
curvature = -0.25

[numerics]
s_max = 1e4
domain_length = 48
spacings = 0.25 0.125, 0.0625
n_eigs = 5
n_thresholds = 12
truncation_tol = 1e-6
include_mourre = yes
mourre_windows = 4.7, 15
mourre_domain_length = 24
mourre_spacing = 0.125
mourre_epsilon_factor = 0.04
mourre_tolerance_factor = 0

[outputs]
report = r.txt
spectrum = s.csv
mesh = m.txt
mourre = w.csv
mesh_s_points = 101
mesh_u_points = 5
"""

EVERY_KEY_RENDERED = """\
[problem]
kind = surface-strip
dimension = 2

[curvature]
family = power-tail
kappa0 = 0.5
sigma = 2.0
p = 3.0

[cross_section]
shape = interval
half_width = 1.0

[surface]
curvature = -0.25

[numerics]
s_max = 10000.0
spacings = 0.25, 0.125, 0.0625
n_eigs = 5
n_thresholds = 12
include_mourre = true
mourre_domain_length = 24.0
mourre_spacing = 0.125
mourre_epsilon_factor = 0.04
mourre_tolerance_factor = 0.0
domain_length = 48.0
truncation_tol = 1e-06
mourre_windows = 4.7, 15.0

[outputs]
report = r.txt
spectrum = s.csv
mesh = m.txt
mourre = w.csv
mesh_s_points = 101
mesh_u_points = 5

"""


def test_a_file_that_sets_every_key_renders_to_its_canonical_text():
    assert load_config_text(EVERY_KEY).render() == EVERY_KEY_RENDERED


BUMP = "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.5"
INTERVAL = "shape = interval\nhalf_width = 1.0"

# label: kind, curvature sections, cross-section, [surface] (None: no section)
PROBLEMS = {
    "constant-interval": ("euclidean-tube", 2, ["family = constant\nvalue = 0.3"],
                          INTERVAL, None),
    "bump-rectangle": ("euclidean-tube", 3, [BUMP, "family = constant\nvalue = 0.1"],
                       "shape = rectangle\nside_x = 1.0\nside_y = 0.5", None),
    "power-tail-disc": ("euclidean-tube", 3, ["family = power-tail\nkappa0 = 0.4\np = 2.5",
                                              "family = constant\nvalue = 0"],
                        "shape = disc\nradius = 0.5", None),
    "table-interval": ("euclidean-tube", 2, ["family = table\nfile = kappa.txt"], INTERVAL, None),
    "strip-constant-K": ("surface-strip", 2, [BUMP], INTERVAL, "curvature = 0.2"),
    "strip-K-table": ("surface-strip", 2, [BUMP], INTERVAL, "file = K.txt"),
}


def _problem_file(tmp_path, kind, dimension, curvatures, cross_section, surface):
    s = np.linspace(-20.0, 20.0, 401)
    np.savetxt(tmp_path / "kappa.txt", np.stack([s, 0.3 * np.exp(-(s**2))], axis=1))
    s, u = np.meshgrid(np.linspace(-20.0, 20.0, 41), np.linspace(-1.0, 1.0, 5), indexing="ij")
    K = np.stack([s.ravel(), u.ravel(), np.full(s.size, 0.1)], axis=1)
    np.savetxt(tmp_path / "K.txt", K)
    parts = [f"[problem]\nkind = {kind}\ndimension = {dimension}"]
    parts += [f"[curvature{i + 1 if i else ''}]\n{c}" for i, c in enumerate(curvatures)]
    parts.append(f"[cross_section]\n{cross_section}")
    if surface is not None:
        parts.append(f"[surface]\n{surface}")
    parts.append("[numerics]\ns_max = 20.0\nspacings = 0.25, 0.125\nn_eigs = 2")
    path = tmp_path / "problem.ini"
    path.write_text("\n\n".join(parts) + "\n")
    return str(path)


@pytest.mark.parametrize("label", list(PROBLEMS))
def test_every_family_shape_and_surface_form_round_trips(tmp_path, label):
    cfg = load_config(_problem_file(tmp_path, *PROBLEMS[label]))
    text = cfg.render()
    again = load_config_text(text, cfg.base_dir)
    assert again == cfg
    assert again.render() == text
    assert cfg.cross_section().dim == cfg.dimension - 1
    assert len(cfg.profile().kappas) == len(cfg.curvatures)


BASE = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = power-tail
kappa0 = 0.5
sigma = 1.0
p = 2.0

[cross_section]
shape = interval
half_width = 1.0

[numerics]
s_max = 1000.0
domain_length = 8.0
spacings = 0.2, 0.1
n_eigs = 3
include_mourre = false
"""


def _not_finite(key, raw, section="numerics"):
    return rf"^\[{section}\] {key} = '{raw}': not a finite number$"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("domain_length = 8.0", "domain_length = nan", _not_finite("domain_length", "nan")),
        ("domain_length = 8.0", "domain_length = inf", _not_finite("domain_length", "inf")),
        ("half_width = 1.0", "half_width = nan", _not_finite("half_width", "nan", "cross_section")),
        ("include_mourre = false", "include_mourre = false\nmourre_windows = nan",
         _not_finite("mourre_windows", "nan")),
        ("p = 2.0", "p = nan", _not_finite("p", "nan", "curvature")),
        ("kappa0 = 0.5", "kappa0 = -inf", _not_finite("kappa0", "-inf", "curvature")),
        ("s_max = 1000.0", "s_max = inf", _not_finite("s_max", "inf")),
        ("spacings = 0.2, 0.1", "spacings = 0.2, nan", _not_finite("spacings", "0.2, nan")),
        ("n_eigs = 3", "n_eigs = 3\ntruncation_tol = nan", _not_finite("truncation_tol", "nan")),
        ("n_eigs = 3", "n_eigs = 3\ntruncation_tol = -1.0",
         r"^\[numerics\] truncation_tol must be positive$"),
    ],
    ids=["domain_length-nan", "domain_length-inf", "half_width-nan", "mourre_windows-nan",
         "p-nan", "kappa0-inf", "s_max-inf", "spacings-nan", "truncation_tol-nan",
         "truncation_tol-negative"],
)
def test_non_finite_and_out_of_range_numbers_are_refused_on_loading(tmp_path, capsys, old, new,
                                                                    message):
    text = BASE.replace(old, new)
    with pytest.raises(ConfigError, match=message):
        load_config_text(text)
    (tmp_path / "problem.ini").write_text(text)
    code = main(["check", "--config", str(tmp_path / "problem.ini"), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: [")


@pytest.mark.parametrize("old, new, message", [
    ("n_eigs = 3", "n_eigs = 3\nspacing = 0.05", r"^\[numerics\] unknown key 'spacing'$"),
    ("[numerics]", "[numeric]", r"^unknown section \[numeric\]$"),
], ids=["misspelt-key", "misspelt-section"])
def test_a_key_or_section_the_grammar_does_not_read_is_refused(old, new, message):
    # either typo would drop what the file sets and run with the defaults
    with pytest.raises(ConfigError, match=message):
        load_config_text(BASE.replace(old, new))


def test_a_missing_surface_table_is_refused_on_loading(tmp_path, capsys):
    path = _problem_file(tmp_path, "surface-strip", 2, [BUMP], INTERVAL, "file = missing.txt")
    with pytest.raises(ConfigError, match=r"^\[surface\] file 'missing\.txt' does not exist$"):
        load_config(path)
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err and "missing.txt" in err


def test_a_problem_file_the_locale_cannot_decode_is_a_config_error(tmp_path, capsys):
    # not UTF-8: a UTF-8 locale refuses to decode it, any other reads a bad kind
    path = tmp_path / "problem.ini"
    path.write_bytes(b"[problem]\nkind = euclidean-tube \xff\n")
    code = main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1 and capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("label, table, row", [
    ("table-interval", "kappa.txt", "1.0 abc"),
    ("table-interval", "kappa.txt", "1.0 nan"),
    ("strip-K-table", "K.txt", "1.0 0.0 abc"),
    ("strip-K-table", "K.txt", "1.0 0.0 nan"),
], ids=["curvature-unparsable", "curvature-nan", "surface-unparsable", "surface-nan"])
def test_a_table_that_is_not_finite_numbers_is_a_config_error(tmp_path, capsys, label, table,
                                                              row):
    path = _problem_file(tmp_path, *PROBLEMS[label])
    with open(tmp_path / table, "a") as fh:
        fh.write(row + "\n")
    cfg = load_config(path)
    build = cfg.profile if table == "kappa.txt" else cfg.gauss_curvature_fn
    with pytest.raises(ConfigError, match=rf"^table '.*{table}' "):
        build()
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: table ") and table in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("mesh_s_points", "-1", "must be at least 2"),
    ("mesh_s_points", "1", "must be at least 2"),
    ("mesh_u_points", "0", "must be at least 1"),
], ids=["s-negative", "s-one", "u-zero"])
def test_mesh_counts_are_checked_on_loading(tmp_path, capsys, key, value, message):
    text = BASE + f"\n[outputs]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"^\[outputs\] {key} {message}$"):
        load_config_text(text)
    (tmp_path / "problem.ini").write_text(text)
    code = main(["export", "--config", str(tmp_path / "problem.ini"), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: [outputs] {key} ")
    assert not (tmp_path / "mesh.txt").exists()
