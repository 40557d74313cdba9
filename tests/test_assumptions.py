import numpy as np
import pytest

from tubespectra import (
    CheckerConfig,
    CurvatureProfile,
    EllipticityError,
    InputError,
    SurfaceData,
    check_basic,
    check_coefficient_assumptions,
    check_curvature_decay,
    check_metric_hypotheses,
    check_self_overlap,
    constant_function,
    gaussian_bump,
    integrate_frenet,
    metric_from_jacobi,
    metric_from_profile,
    power_tail,
    tabulated_function,
    tube_embedding,
)


def d2_profile(fn, s_max=1e4):
    return CurvatureProfile([fn], (-s_max, s_max))


def test_tail_suprema_are_non_increasing_by_construction():
    from tubespectra.assumptions import default_ladder, sample_abscissae, tail_sups

    prof = d2_profile(power_tail(0.5, 1.0, 1.5))
    s = sample_abscissae(prof.s_range, CheckerConfig())
    ladder = default_ladder(prof.s_range)
    # a wiggly quantity still yields monotone suffix maxima
    vals = np.abs(np.sin(3 * s)) / (1 + np.abs(s))
    sups, _ = tail_sups(vals, s, ladder)
    assert np.all(np.diff(sups) <= 0.0)


def test_gaussian_profile_passes_with_capped_theta(bump_profile):
    report = check_curvature_decay(bump_profile)
    assert report.overall == "pass"
    agg = report.entry("curvature-decay-rate")
    assert agg.verdict == "pass"
    assert agg.fitted_theta == 1.0  # superpolynomial decay capped at one


def test_constant_curvature_fails_the_vanishing_limit():
    report = check_curvature_decay(d2_profile(constant_function(0.4), s_max=100.0))
    assert report.entry("curvature-vanishes[k1]").verdict == "fail"
    assert report.overall == "fail"


def test_power_tail_theta_matches_the_exponent():
    # kappa ~ |s|^-1.5 = |s|^-(1+0.5): certificate theta must come out ~0.5
    report = check_curvature_decay(d2_profile(power_tail(0.5, 1.0, 1.5)))
    agg = report.entry("curvature-decay-rate")
    assert agg.verdict == "pass"
    assert 0.35 <= agg.fitted_theta <= 0.65
    # the slowest member is kappa itself; its derivative fits theta ~ 1.5 (capped)
    assert report.entry("curvature-decay-rate[k1]").fitted_theta == pytest.approx(
        0.5, abs=0.05
    )
    assert report.entry("curvature-decay-rate[k1']").fitted_theta == 1.0


def test_slow_root_tail_derivative_rate_but_overall_failure():
    # kappa ~ |s|^-1/2: its derivative decays like |s|^-(1+1/2) so that
    # quantity alone fits theta ~ 0.5, but the undifferentiated member drags
    # the aggregate below the floor: the strengthened rule refuses to certify.
    report = check_curvature_decay(d2_profile(power_tail(0.5, 1.0, 0.5)))
    deriv = report.entry("curvature-decay-rate[k1']")
    assert deriv.fitted_theta == pytest.approx(0.5, abs=0.05)
    assert deriv.verdict == "pass"
    base = report.entry("curvature-decay-rate[k1]")
    assert base.fitted_theta < 0.05
    assert report.entry("curvature-decay-rate").verdict == "fail"


def test_three_dimensional_profile_passes_all_items():
    prof = CurvatureProfile(
        [gaussian_bump(0.4, 1.0), power_tail(0.3, 1.0, 2.0)], (-1e4, 1e4)
    )
    report = check_curvature_decay(prof)
    assert report.overall == "pass"
    assert report.entry("curvature-decay-rate").fitted_theta == 1.0
    # the mixed generator products are reported individually
    assert report.entry("curvature-decay-rate[K'K^2]").verdict == "pass"


def test_short_range_is_inconclusive_never_pass():
    prof = d2_profile(gaussian_bump(0.4, 1.0), s_max=6.0)
    ladder = (1.0, 2.0, 3.0, 4.0)  # span 4 < 8
    report = check_curvature_decay(prof, ladder=ladder)
    agg = report.entry("curvature-decay-rate")
    assert agg.verdict == "inconclusive"
    assert report.overall in ("inconclusive", "fail")
    assert report.overall != "pass"


def test_short_table_decay_is_inconclusive_not_fail():
    # the shorter side of [-20, 60] puts the R-ladder (0.3125 .. 10) inside
    # the bump: no power law fits there, which is missing data, not a
    # broken hypothesis
    s = np.linspace(-20.0, 60.0, 801)
    prof = CurvatureProfile([tabulated_function(s, 0.3 * np.exp(-(s**2)))], (-20.0, 60.0))
    report = check_curvature_decay(prof)
    assert report.entry("curvature-decay-rate").verdict == "inconclusive"
    assert report.overall == "inconclusive"


def _curved(profile, s):
    """Where any curvature input of a tube's jet is nonzero: kappa_1^(0..3), kappa_i^(0..2) for i >= 2."""
    return np.any([profile.kappa(i, s, k) != 0.0
                   for i in range(1, profile.dimension) for k in range(4 if i == 1 else 3)],
                  axis=0)


def _taken(curved):
    """The abscissae a gate's jets take: the curved ones and the first straight one."""
    taken = curved.copy()
    if not curved.all():
        taken[np.argmax(~curved)] = True
    return taken


def test_each_gate_quantity_is_evaluated_once(bump_metric, monkeypatch):
    # the coefficient and metric checks read every quantity off one metric
    # jet per block of abscissae, taken on its curved abscissae and, once,
    # on the first straight one, each abscissa in at most one jet; the
    # coefficient check reads the metric check's before dropping it; the
    # curvature check evaluates each kappa_i^(k) once
    from collections import Counter

    from tubespectra import metric as metric_module
    from tubespectra.assumptions import _gate_sample, sample_abscissae

    jets, kappas = [], Counter()
    jet = metric_module.EuclideanTubeMetric._jet
    kappa = CurvatureProfile.kappa

    def counted_jet(self, s, *args):
        jets.append(np.ravel(s))
        return jet(self, s, *args)

    def counted_kappa(self, i, s, order=0):
        kappas[i, order] += 1
        return kappa(self, i, s, order)

    abscissae = sample_abscissae(bump_metric.s_range)
    taken = _taken(_curved(bump_metric.profile, abscissae))
    assert 2048 < taken.sum() < 3000 < abscissae.size
    monkeypatch.setattr(metric_module.EuclideanTubeMetric, "_jet", counted_jet)
    monkeypatch.setattr(CurvatureProfile, "kappa", counted_kappa)

    _gate_sample.cache_clear()
    for check, sampled in ((check_metric_hypotheses, 1), (check_coefficient_assumptions, 1),
                           (check_coefficient_assumptions, 2)):
        check(bump_metric)
        assert len(jets) == 2 * sampled and np.array_equal(np.concatenate(jets),
                                                           np.tile(abscissae[taken], sampled))

    kappas.clear()
    check_curvature_decay(CurvatureProfile(
        [gaussian_bump(0.4, 1.0), power_tail(0.3, 1.0, 2.0)], (-1e4, 1e4)
    ))
    assert kappas == Counter({(1, k): 1 for k in range(4)} | {(2, k): 1 for k in range(3)})


class _CountedJets:
    """A metric whose jets are counted, with the abscissae each takes; all else is the wrapped metric's."""

    def __init__(self, metric):
        self.metric, self.jets = metric, []

    def __getattr__(self, name):
        return getattr(self.metric, name)

    def jet(self, s, u, *fields):
        self.jets.append(np.ravel(s))
        return self.metric.jet(s, u, *fields)

    def _straight(self, s):
        split = self.metric._straight(s)
        if split is None:
            return None
        straight, jet = split

        def counted(keep, u, *fields):
            self.jets.append(np.ravel(s[..., keep]))
            return jet(keep, u, *fields)

        return straight, counted


class _FullSampling(_CountedJets):
    """The wrapped metric, sampled at every abscissa."""

    def _straight(self, s):
        return None


STRIP = """
[problem]
kind = surface-strip
dimension = 2

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[cross_section]
shape = interval
half_width = 1.0

[surface]
curvature = {K}
"""


@pytest.mark.parametrize("K", ["0.0", "0.1"])
def test_a_strip_gate_takes_one_jet_per_block(K):
    # the metric and coefficient checks share the full jet of each block
    # that holds a curved abscissa or the first straight one, taken there
    # alone: 2 of the 3 blocks; K = 0.1 fails the gate by design, with the
    # same sampling
    from tubespectra.assumptions import sample_abscissae
    from tubespectra.cli import assumption_gate, build_metric
    from tubespectra.config import load_config_text

    cfg = load_config_text(STRIP.format(K=K))
    profile, omega = cfg.profile(), cfg.cross_section()
    metric = _CountedJets(build_metric(cfg, profile, omega))
    reports = assumption_gate(cfg, profile, omega, metric)
    s = sample_abscissae(metric.s_range)
    taken = s[_taken(_curved(profile, s))]
    assert len(metric.jets) == 2 and np.array_equal(np.concatenate(metric.jets), taken)
    assert np.abs(taken).max() < 30.0 < s.max()
    assert list(reports) == ["basic", "metric-decay", "coefficients"]
    # each report is the one its check gives alone, on a fresh sampling,
    # and the one full sampling gives
    for name, check in (("metric-decay", check_metric_hypotheses),
                        ("coefficients", check_coefficient_assumptions)):
        alone, full = _CountedJets(metric.metric), _FullSampling(metric.metric)
        assert check(alone).render() == reports[name].render() and len(alone.jets) == 2
        assert check(full).render() == reports[name].render() and len(full.jets) == 3


TUBE = """
[problem]
kind = euclidean-tube
dimension = {d}

[curvature]
{kappa1}

[curvature2]
{kappa2}

[cross_section]
{cross_section}
"""
BUMP, BUMP2 = "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.0", "family = gaussian-bump\nkappa0 = 0.3\nsigma = 1.0"
INTERVAL, SQUARE = "shape = interval\nhalf_width = 1.0", "shape = rectangle\nside_x = 1.0\nside_y = 1.0"
GATE_PROBLEMS = {
    "d2-gaussian": TUBE.format(d=2, kappa1=BUMP, kappa2="", cross_section=INTERVAL),
    "rect-tube": TUBE.format(d=3, kappa1=BUMP, kappa2=BUMP2, cross_section=SQUARE),
    "disc": TUBE.format(d=3, kappa1=BUMP, kappa2=BUMP2, cross_section="shape = disc\nradius = 1.0"),
    "flat-strip": STRIP.format(K="0.0"),
    "curved-strip": STRIP.format(K="0.1"),
    "table": TUBE.format(d=2, kappa1="family = table\nfile = kappa.txt", kappa2="",
                         cross_section=INTERVAL),
    "planar-d3": TUBE.format(d=3, kappa1=BUMP, kappa2="family = constant\nvalue = 0.0",
                             cross_section=SQUARE),
}


def _twice_vanishing(a=0.5):
    """a s^2 exp(-s^2): at s = 0 it and its first derivative are 0, its second is not."""
    from tubespectra.profiles import ScalarFunction

    def along(poly):
        return lambda s: a * np.polynomial.polynomial.polyval(s, poly) * np.exp(-s * s)

    return ScalarFunction([along(p) for p in ((0, 0, 1), (0, 2, 0, -2), (2, 0, -10, 0, 4),
                                             (0, -24, 0, 36, 0, -8))], sup_abs=a)


def _nan_beyond(r):
    """A curvature that is 0 up to |s| = r and nan beyond, in every derivative."""
    from tubespectra.profiles import ScalarFunction

    return ScalarFunction([lambda s: np.where(np.abs(s) > r, np.nan, 0.0)] * 3, sup_abs=0.0)


def _nan_torsion_tube():
    from tubespectra import RotationField, metric_from_frames

    profile = CurvatureProfile([gaussian_bump(0.5), _nan_beyond(50.0)], (-1e4, 1e4))
    s = np.linspace(-1e4, 1e4, 5)
    return metric_from_frames(profile, RotationField(s, np.tile(np.eye(2), (5, 1, 1))), 0.5)


# metrics built in code: a curvature exactly 0 at s = 0 whose second
# derivative is not, and a second curvature that is nan where the first is 0
CODE_PROBLEMS = {
    "twice-vanishing-tube": lambda: metric_from_profile(d2_profile(_twice_vanishing()), 1.0),
    "twice-vanishing-strip": lambda: metric_from_jacobi(
        SurfaceData(0.0, _twice_vanishing(), 1.0, (-1e4, 1e4))),
    "nan-torsion": _nan_torsion_tube,
}


def _gate_metric(text, tmp_path):
    """The metric a gate samples, and its profile, from a problem file's text or a builder."""
    from tubespectra.cli import build_metric
    from tubespectra.config import load_config

    if callable(text):
        metric = text()
        profile = getattr(metric, "profile", None) or d2_profile(metric.kappa)
        return metric, profile
    s = np.arange(-160, 161) * 0.25
    np.savetxt(tmp_path / "kappa.txt", np.stack([s, 0.5 * np.exp(-s * s)], axis=1))
    path = tmp_path / "problem.ini"
    path.write_text(text.replace("[curvature2]\n\n", ""))
    cfg = load_config(str(path))
    profile = cfg.profile()
    return build_metric(cfg, profile, cfg.cross_section()), profile


@pytest.mark.parametrize("problem", list(GATE_PROBLEMS) + list(CODE_PROBLEMS))
def test_the_gate_sups_equal_full_sampling_bit_for_bit(problem, tmp_path):
    # a straight abscissa takes the representative's sups: they are the
    # ones its own jet gives, to the last bit
    from tubespectra.assumptions import _gate_sample

    metric, profile = _gate_metric((GATE_PROBLEMS | CODE_PROBLEMS)[problem], tmp_path)
    skipping, full = _CountedJets(metric), _FullSampling(metric)
    samples = [_gate_sample(m, CheckerConfig()) for m in (skipping, full)]
    _gate_sample.cache_clear()
    (s, ladder, sups), (s_full, ladder_full, sups_full) = samples
    assert np.array_equal(s, s_full) and ladder == ladder_full and sups.keys() == sups_full.keys()
    for name, values in sups.items():
        assert values.tobytes() == sups_full[name].tobytes(), name
    assert np.array_equal(np.concatenate(full.jets), s)
    taken = np.concatenate(skipping.jets)
    assert np.array_equal(taken, s[_taken(_curved(profile, s))])
    # each skips most of the tails but the table, whose spline is exactly 0
    # only at its ends, and the nan second curvature, which is never 0
    # where the first is
    if problem == "table":
        assert 0 < s.size - taken.size < 3
    elif problem == "nan-torsion":
        assert np.abs(s[~_curved(profile, s)]).max() < 50.0
    else:
        assert taken.size < s.size / 2
    if problem.startswith("twice-vanishing"):
        assert 0.0 in taken


def _focal_strip():
    # K = 1 with a = 1: kappa >= cot(1) puts a focal point inside the strip
    return metric_from_jacobi(SurfaceData(1.0, gaussian_bump(0.9), 1.0, (-1e4, 1e4)))


def _short_rotation_tube():
    # the rotation samples cover |s| <= 50 of the s_range's 1e4
    from tubespectra import integrate_tang_rotation, metric_from_frames

    profile = CurvatureProfile([gaussian_bump(0.5), gaussian_bump(0.3)], (-1e4, 1e4))
    return metric_from_frames(profile, integrate_tang_rotation(
        profile, np.linspace(-50.0, 50.0, 201)), 0.5)


@pytest.mark.parametrize("metric,error", [(_focal_strip, EllipticityError),
                                          (_short_rotation_tube, InputError)],
                         ids=["focal-point", "rotation-range"])
def test_the_gate_raises_what_full_sampling_raises(metric, error):
    from tubespectra.assumptions import _gate_sample

    metric = metric()
    raised = []
    for sampled in (_CountedJets(metric), _FullSampling(metric)):
        with pytest.raises(error) as caught:
            _gate_sample(sampled, CheckerConfig())
        raised.append(str(caught.value))
    _gate_sample.cache_clear()
    assert raised[0] == raised[1]
    assert raised[0].startswith(("focal point inside the strip: h = 0 at (s=0,",
                                 "evaluation outside the rotation sample range"))


def test_a_power_tail_gate_skips_nothing():
    # kappa ~ |s|^-2.5 is nowhere exactly 0: every abscissa takes its own jet
    from tubespectra.assumptions import _gate_sample, sample_abscissae

    metric = _CountedJets(metric_from_profile(d2_profile(power_tail(0.5, 1.0, 2.5)), 1.0))
    _gate_sample(metric, CheckerConfig())
    _gate_sample.cache_clear()
    assert np.array_equal(np.concatenate(metric.jets), sample_abscissae(metric.s_range))


def test_free_coefficient_field_is_refused():
    with pytest.raises(InputError):
        check_coefficient_assumptions(None)


def test_reports_are_deterministic(bump_profile):
    a = check_curvature_decay(bump_profile).render()
    b = check_curvature_decay(bump_profile).render()
    assert a == b


# ---------------------------------------------------------------------------
# metric-level checks and the euclidean specialization


def flat_strip_metric(kappa_fn, s_max=1e4):
    surface = SurfaceData(
        gauss_curvature=lambda s, u: np.zeros(np.broadcast_shapes(np.shape(s), np.shape(u))),
        kappa=lambda s: kappa_fn(s),
        a=1.0,
        s_range=(-s_max, s_max),
    )
    return metric_from_jacobi(surface)


@pytest.mark.parametrize(
    "fn,expected,s_max",
    [
        (gaussian_bump(0.5, 1.0), "pass", 300.0),
        (power_tail(0.5, 1.0, 1.5), "pass", 1500.0),
        (constant_function(0.4), "fail", 300.0),
    ],
    ids=["gaussian", "powertail", "constant"],
)
def test_metric_and_curvature_checks_agree_for_planar_tubes(fn, expected, s_max):
    prof = d2_profile(fn, s_max=s_max)
    cfg = CheckerConfig(tail_samples=512, linear_samples=513)
    curv = check_curvature_decay(prof, config=cfg)
    metric = flat_strip_metric(lambda s: fn(s), s_max=s_max)
    metr = check_metric_hypotheses(metric, config=cfg)
    assert curv.overall == metr.overall == expected


def test_positive_curvature_strip_fails_flatness_limit():
    surface = SurfaceData(
        gauss_curvature=lambda s, u: np.ones(np.broadcast_shapes(np.shape(s), np.shape(u))),
        kappa=lambda s: np.zeros_like(np.asarray(s, float)),
        a=1.0,
        s_range=(-200.0, 200.0),
    )
    metric = metric_from_jacobi(surface)
    cfg = CheckerConfig(tail_samples=256, linear_samples=257)
    report = check_metric_hypotheses(metric, config=cfg)
    assert report.entry("metric-approach-flat[h-1]").verdict == "fail"
    assert report.overall == "fail"


# ---------------------------------------------------------------------------
# basic well-posedness


def test_basic_margin_is_reported(bump_metric):
    report = check_basic(bump_metric, waive_overlap=True)
    entry = report.entry("basic-curvature-bound")
    assert entry.verdict == "pass"
    assert "margin=0.5" in entry.notes
    assert report.entry("basic-self-overlap").verdict == "pass"
    assert "waived" in report.entry("basic-self-overlap").notes


def test_narrow_bump_breaking_the_curvature_bound_fails_the_gate():
    # a * sup|kappa_1| = 1.2: the tube map is not a local diffeomorphism
    prof = d2_profile(gaussian_bump(1.2, 0.25))
    with pytest.raises(EllipticityError):
        metric_from_profile(prof, 1.0)


def test_basic_with_overlap_result(bump_metric, bump_profile):
    s = np.linspace(-6, 6, 301)
    frames = integrate_frenet(bump_profile, s)
    cloud = tube_embedding(frames, np.array([-1.0, 0.0, 1.0]), radius=1.0)
    overlap = check_self_overlap(cloud)
    report = check_basic(bump_metric, overlap=overlap)
    assert report.entry("basic-self-overlap").verdict == "pass"
    assert report.overall == "pass"


def test_basic_unchecked_overlap_is_inconclusive(bump_metric):
    report = check_basic(bump_metric)
    assert report.entry("basic-self-overlap").verdict == "inconclusive"
    assert report.overall == "inconclusive"
