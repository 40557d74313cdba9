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


def test_each_gate_quantity_is_evaluated_once(bump_metric, monkeypatch):
    # the coefficient and metric checks read every quantity off one metric
    # jet per block of abscissae, each abscissa in exactly one block, and
    # the coefficient check reads the metric check's before dropping it;
    # the curvature check evaluates each kappa_i^(k) once
    from collections import Counter

    from tubespectra import metric as metric_module
    from tubespectra.assumptions import _gate_sample, sample_abscissae

    jets, kappas = [], Counter()
    jet = metric_module.EuclideanTubeMetric.jet
    kappa = CurvatureProfile.kappa

    def counted_jet(self, s, u, *fields):
        jets.append(np.ravel(s))
        return jet(self, s, u, *fields)

    def counted_kappa(self, i, s, order=0):
        kappas[i, order] += 1
        return kappa(self, i, s, order)

    monkeypatch.setattr(metric_module.EuclideanTubeMetric, "jet", counted_jet)
    monkeypatch.setattr(CurvatureProfile, "kappa", counted_kappa)

    abscissae = sample_abscissae(bump_metric.s_range)
    _gate_sample.cache_clear()
    for check, sampled in ((check_metric_hypotheses, 1), (check_coefficient_assumptions, 1),
                           (check_coefficient_assumptions, 2)):
        check(bump_metric)
        assert len(jets) > 1 and np.array_equal(np.concatenate(jets),
                                                np.tile(abscissae, sampled))

    kappas.clear()
    check_curvature_decay(CurvatureProfile(
        [gaussian_bump(0.4, 1.0), power_tail(0.3, 1.0, 2.0)], (-1e4, 1e4)
    ))
    assert kappas == Counter({(1, k): 1 for k in range(4)} | {(2, k): 1 for k in range(3)})


class _CountedJets:
    """A metric whose jet calls are counted; everything else is the wrapped metric's."""

    def __init__(self, metric):
        self.metric, self.jets = metric, 0

    def __getattr__(self, name):
        return getattr(self.metric, name)

    def jet(self, s, u, *fields):
        self.jets += 1
        return self.metric.jet(s, u, *fields)


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
    # the metric and coefficient checks share the full jet of each block;
    # K = 0.1 fails the gate by design, with the same sampling
    from tubespectra.assumptions import _probe_blocks, _u_probe, sample_abscissae
    from tubespectra.cli import assumption_gate, build_metric
    from tubespectra.config import load_config_text

    cfg = load_config_text(STRIP.format(K=K))
    profile, omega = cfg.profile(), cfg.cross_section()
    metric = _CountedJets(build_metric(cfg, profile, omega))
    reports = assumption_gate(cfg, profile, omega, metric)
    blocks = _probe_blocks(sample_abscissae(metric.s_range), _u_probe(metric.a, 1))
    assert metric.jets == len(list(blocks)) == 3
    assert list(reports) == ["basic", "metric-decay", "coefficients"]
    # each report is the one its check gives alone, on a fresh sampling
    for name, check in (("metric-decay", check_metric_hypotheses),
                        ("coefficients", check_coefficient_assumptions)):
        alone = _CountedJets(metric.metric)
        assert check(alone).render() == reports[name].render() and alone.jets == 3


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
