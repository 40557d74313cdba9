"""Numerical verification of the geometric decay hypotheses.

The spectral statements for a curved tube require the curvatures (or, on
a surface strip, the metric coefficient), and with them the coefficients
G and V of the transformed Hamiltonian, to settle to their straight-tube
values at infinity: some quantities must merely vanish, others must decay
at a power rate |s|^-(1+theta) for some theta in (0, 1].  Finite data can
never prove a limit, so the checks here use honest finite-range
semantics:

* limit-type hypotheses pass when the tail suprema decrease along a
  ladder of radii and the last one is below ``zero_tol`` relative to the
  global supremum; decreasing-but-not-small yields ``inconclusive``;
* rate-type hypotheses fit log sup_{|s|>R} |f| against -(1+theta) log R
  and pass when the fitted theta clears ``theta_min`` with a small
  residual; a theta below it fails, a large residual (no power law fits
  the ladder) yields ``inconclusive``; the reported theta is capped at 1.

Every rate fit also includes the undifferentiated quantity itself (kappa
alongside its derivatives, |h-1| alongside the h-derivatives).  That is a
deliberate strengthening of the minimal hypotheses: the certificate theta
then reflects the slowest-decaying member of the family, which keeps a
``pass`` conservative and makes the fitted exponent meaningful for
power-tail profiles.

Each quantity is evaluated once per check: |f| on one set of abscissae
(:func:`sample_abscissae`), maxed over the transverse probe where f
depends on u (:func:`sampled_abs`).  The metric and coefficient checks
read all their quantities off one metric jet (``TubeMetric.jet``) per
block of abscissae, taken on the block's axes (the abscissae as a row,
the probe down the columns) so that a field of s alone is taken once
per abscissa; they share that sampling, so a strip's gate, which runs
both, takes each block's jet once.  The curvature check reads one table
of the kappa_i^(k) it needs.  The set has geometric tails on both sides
plus evenly spaced near-field points that cover the hole the tails leave
around s = 0, where curvature bumps sit.  Every limit, decay
and bounded entry reads that one array: tail suprema are its suffix
maxima over |s| (:func:`tail_sups`), so they are exactly non-increasing
in R by construction, and a bounded entry takes its maximum.  The
ellipticity bounds of strips whose Gauss curvature varies
(``metric.ellipticity_bounds``) and the fallback of
``CurvatureProfile.kappa1_sup`` sample the same set.  All checks are
deterministic: identical inputs and configuration produce byte-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError

__all__ = [
    "CheckerConfig",
    "HypothesisEntry",
    "AssumptionReport",
    "default_ladder",
    "sample_abscissae",
    "sampled_abs",
    "tail_sups",
    "limit_entry",
    "decay_entry",
    "bounded_entry",
    "check_curvature_decay",
    "check_metric_hypotheses",
    "check_coefficient_assumptions",
    "check_basic",
]


@dataclass(frozen=True)
class CheckerConfig:
    """Artifact parameters of the checker; reported in every output."""

    zero_tol: float = 1e-4        # limit test: last tail sup, relative to global sup
    theta_min: float = 0.05       # rate test: smallest acceptable fitted theta
    theta_cap: float = 1.0        # reported theta is clipped to (0, theta_cap]
    residual_max: float = 0.2     # rate test: largest acceptable RMS log-residual
    tail_samples: int = 2048      # log-spaced samples per tail side
    linear_samples: int = 2049    # near-field linear samples, where the tails stop
    min_ladder_points: int = 4
    min_ladder_span: float = 8.0  # max(R)/min(R) below this => inconclusive
    underflow_floor: float = 1e-280
    # Tail values this far below the quantity's own peak are treated as
    # numerically vanished: finite-difference quantities plateau near the
    # integration roundoff floor instead of underflowing.  Verdict-safe,
    # since a genuine power tail dropping six decades across the ladder
    # already exceeds the exponent cap.
    noise_floor_rel: float = 1e-6


@dataclass(frozen=True)
class HypothesisEntry:
    """One checked hypothesis: ladder data, optional fit, verdict."""

    identifier: str
    quantity: str
    kind: str                     # 'limit' | 'decay' | 'bounded'
    verdict: str                  # 'pass' | 'fail' | 'inconclusive'
    ladder: tuple = ()            # ((R, sup), ...)
    fitted_c: float = None
    fitted_theta: float = None
    residual: float = None
    notes: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    entries: tuple
    config: CheckerConfig

    @property
    def overall(self):
        """Conjunction of verdicts; inconclusive propagates over pass."""
        return _combined(e.verdict for e in self.entries)

    def entry(self, identifier):
        for e in self.entries:
            if e.identifier == identifier:
                return e
        raise KeyError(identifier)

    def render(self):
        lines = [f"overall = {self.overall}", f"config = {self.config!r}"]
        for e in self.entries:
            lines.append(
                f"[{e.identifier}] kind={e.kind} verdict={e.verdict} quantity={e.quantity}"
            )
            if e.fitted_theta is not None:
                lines.append(
                    f"  fit: C={e.fitted_c!r} theta={e.fitted_theta!r} "
                    f"residual={e.residual!r}"
                )
            for r, sup in e.ladder:
                lines.append(f"  R={r!r} sup={sup!r}")
            if e.notes:
                lines.append(f"  notes: {e.notes}")
        return "\n".join(lines) + "\n"


def _combined(verdicts):
    """fail over inconclusive over pass."""
    verdicts = set(verdicts)
    return next((v for v in ("fail", "inconclusive") if v in verdicts), "pass")


def default_ladder(s_range, levels=6):
    """Geometric radii s_abs/2^levels .. s_abs/2 inside the usable range.

    Six levels span a factor 32: wide enough for a stable regression while
    keeping the smallest radius out of the profile's near field.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    m = min(-lo, hi)
    if m <= 0:
        raise InputError("decay checks need an s_range straddling 0")
    return tuple(m / 2.0**j for j in range(levels, 0, -1))


def sample_abscissae(s_range, cfg=None):
    """The one set of s values every sampled sup of the gate is taken on.

    ``tail_samples`` geometric points per side from start = m*1e-3 out to
    the ends of s_range (m = min(-lo, hi)), plus ``linear_samples`` evenly
    spaced near-field points on [-start, start], the hole the tails leave.
    A range that does not straddle 0 gets the linear points only, spread
    over the whole range.  Returned sorted by |s|.
    """
    cfg = cfg or CheckerConfig()
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < hi:
        raise InputError("empty s_range")
    if lo < 0 < hi:
        start = min(-lo, hi) * 1e-3
        pieces = [
            np.linspace(-start, start, cfg.linear_samples),
            np.geomspace(start, hi, cfg.tail_samples),
            -np.geomspace(start, -lo, cfg.tail_samples),
        ]
    else:
        pieces = [np.linspace(lo, hi, cfg.linear_samples)]
    s = np.unique(np.concatenate(pieces))
    return s[np.argsort(np.abs(s), kind="stable")]


# abscissae per evaluation over the probe.  It bounds the working set of
# a jet, and keeps the default gate to 3 blocks: an integrated strip's jet
# sweeps the Jacobi equation once per stencil offset, and one sweep of a
# block holds h and h_u on 513 u-nodes, 2 x 513 x 2,048 doubles (17 MB)
_BLOCK = 2048


def _probe_blocks(s, probe):
    """(t, u) per block of abscissae: t a row of them, u the probe points down axis 0."""
    for i in range(0, s.size, _BLOCK):
        t = s[None, i:i + _BLOCK]
        yield t, np.broadcast_to(probe[:, None], (len(probe), t.size) + probe.shape[1:])


def sampled_abs(fn, s, probe):
    """Max over the probe of |q(s_i, u)| for each array q of the dict fn(t, u) returns.

    ``fn`` is called once per block of abscissae (:func:`_probe_blocks`)
    and may return arrays that depend on s alone in the shape of t.
    Returns ``{name: array over s}``.
    """
    parts = [{name: np.max(np.abs(q), axis=0) for name, q in fn(t, u).items()}
             for t, u in _probe_blocks(s, probe)]
    sups = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    if any(v.shape != s.shape for v in sups.values()):
        raise InputError("quantity function must be vectorized over s")
    return sups


def tail_sups(vals, s, ladder):
    """(sup of vals over |s| > R for each R, global sup), vals on s sorted by |s|.

    Suffix maxima, so the tail sups are exactly non-increasing in R.
    """
    suffix = np.maximum.accumulate(vals[::-1])[::-1]
    abs_s = np.abs(s)
    sups = []
    for r in ladder:
        i = np.searchsorted(abs_s, r, side="right")
        if i >= s.size:
            raise InputError(f"ladder radius {r:g} beyond the sampled range")
        sups.append(float(suffix[i]))
    return np.array(sups), float(vals.max(initial=0.0))


def _ladder_tuple(ladder, sups):
    return tuple((float(r), float(s)) for r, s in zip(ladder, sups))


def _ladder_shape_ok(ladder, cfg):
    ladder = tuple(float(r) for r in ladder)
    if len(ladder) < cfg.min_ladder_points:
        return False
    if min(ladder) <= 0 or max(ladder) / min(ladder) < cfg.min_ladder_span:
        return False
    return True


def bounded_entry(identifier, quantity, ok, notes=""):
    return HypothesisEntry(
        identifier=identifier,
        quantity=quantity,
        kind="bounded",
        verdict="pass" if ok else "fail",
        notes=notes,
    )


def _sup_entry(identifier, quantity, vals):
    """Hypothesis 'f is bounded': the largest sampled |f| is finite."""
    sup = float(vals.max())
    return bounded_entry(identifier, quantity, ok=np.isfinite(sup), notes=f"sup={sup!r}")


def limit_entry(identifier, quantity, vals, ladder, s, cfg):
    """Hypothesis 'f -> 0 as |s| -> inf' on |f| sampled at ``s``."""
    sups, global_sup = tail_sups(vals, s, ladder)
    if global_sup == 0.0:
        return HypothesisEntry(
            identifier, quantity, "limit", "pass",
            ladder=_ladder_tuple(ladder, sups), notes="identically zero",
        )
    rel_last = sups[-1] / global_sup
    non_increasing = bool(np.all(np.diff(sups) <= 0.0))
    if non_increasing and rel_last < cfg.zero_tol:
        # includes tails that vanish outright, the strongest possible decay
        verdict, notes = "pass", ""
    elif non_increasing and sups[-1] < sups[0]:
        verdict = "inconclusive"
        notes = f"decreasing but last relative sup {float(rel_last)!r} >= zero_tol"
    else:
        verdict, notes = "fail", "tail suprema do not decrease below zero_tol"
    return HypothesisEntry(
        identifier, quantity, "limit", verdict,
        ladder=_ladder_tuple(ladder, sups), notes=notes,
    )


def _fit_one(identifier, name, ladder, cfg, sups, global_sup):
    """Per-quantity power fit; returns an entry (verdict for this quantity)."""
    ladder = np.asarray(ladder, dtype=float)
    sups = np.asarray(sups, dtype=float)
    floor = max(cfg.underflow_floor, cfg.noise_floor_rel * float(global_sup))
    positive = sups > floor
    if not positive.any():
        return HypothesisEntry(
            identifier, name, "decay", "pass",
            ladder=_ladder_tuple(ladder, sups),
            fitted_theta=cfg.theta_cap,
            notes="identically zero (or below floating floor)",
        )
    if positive.sum() < cfg.min_ladder_points:
        return HypothesisEntry(
            identifier, name, "decay", "pass",
            ladder=_ladder_tuple(ladder, sups),
            fitted_theta=cfg.theta_cap,
            notes="vanishes beyond the first ladder radii; faster than any power",
        )
    x = np.log(ladder[positive])
    y = np.log(sups[positive])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    theta = -slope - 1.0
    if theta >= cfg.theta_min and resid < cfg.residual_max:
        verdict, notes = "pass", ""
    elif theta >= cfg.theta_min and resid >= cfg.residual_max:
        verdict, notes = "inconclusive", "no power law fits on this ladder"
    else:  # theta too small, or a NaN fit
        verdict, notes = "fail", f"uncapped theta {float(theta)!r}"
    return HypothesisEntry(
        identifier, name, "decay", verdict,
        ladder=_ladder_tuple(ladder, sups),
        fitted_c=float(np.exp(intercept)),
        fitted_theta=float(min(theta, cfg.theta_cap)),
        residual=resid,
        notes=notes,
    )


def decay_entry(identifier, quantities, ladder, s, cfg):
    """Hypothesis 'every f in the family is O(|s|^-(1+theta))'.

    ``quantities`` maps names to |f| sampled at ``s``.  Emits one
    aggregate entry whose fitted theta is the minimum over the family and
    whose verdict is the worst member's (fail over inconclusive over
    pass); per-quantity details are folded into the notes.  A ladder that
    is too short yields ``inconclusive``, never ``pass``.
    """
    if not _ladder_shape_ok(ladder, cfg):
        agg = HypothesisEntry(
            identifier, "+".join(quantities), "decay", "inconclusive",
            notes="ladder too short: need >= "
            f"{cfg.min_ladder_points} radii spanning a factor {cfg.min_ladder_span:g}",
        )
        return agg, ()
    subs = [
        _fit_one(f"{identifier}[{name}]", name, ladder, cfg, *tail_sups(vals, s, ladder))
        for name, vals in quantities.items()
    ]

    measured = [e for e in subs if e.fitted_theta is not None and e.fitted_c is not None]
    if measured:
        worst = min(measured, key=lambda e: e.fitted_theta)
        theta, c_fit, resid = worst.fitted_theta, worst.fitted_c, worst.residual
        ladder_data = worst.ladder
    else:
        # every member vanished identically
        theta, c_fit, resid = cfg.theta_cap, None, None
        ladder_data = subs[0].ladder if subs else ()
    verdict = _combined(e.verdict for e in subs)
    detail = "; ".join(
        f"{e.quantity}: theta={e.fitted_theta!r}"
        + (f" ({e.notes})" if e.notes else "")
        for e in subs
    )
    agg = HypothesisEntry(
        identifier, "+".join(quantities), "decay", verdict,
        ladder=ladder_data,
        fitted_c=c_fit,
        fitted_theta=theta,
        residual=resid,
        notes=detail,
    )
    return agg, tuple(subs)


# ---------------------------------------------------------------------------
# curvature-level checks


def check_curvature_decay(profile, ladder=None, config=None):
    """Decay hypotheses expressed directly on the curvature generator.

    Limits: the first-column entries and their second derivatives vanish.
    Bounded: the transverse sub-block and the derivative of its second
    column stay bounded.  Rate: first/third derivatives of the first
    column, the second column, its second derivative, and the two mixed
    products fit |s|^-(1+theta), together with the first column itself.

    Each kappa_i^(k) these need is evaluated once on the abscissae, and
    every quantity is read off that table: the first column is
    (-kappa_1, 0, ...), the sub-block's first column (0, -kappa_2, 0, ...),
    and a sub-block applied to it is -kappa_2 times that sub-block's
    second column (kappa_2, 0, -kappa_3, 0, ...).
    """
    cfg = config or CheckerConfig()
    if ladder is None:
        ladder = default_ladder(profile.s_range)
    s = sample_abscissae(profile.s_range, cfg)
    d = profile.dimension
    table = {}

    def k(i, order):
        """|kappa_i^(order)| on the abscissae."""
        if (i, order) not in table:
            table[i, order] = np.abs(profile.kappa(i, s, order))
        return table[i, order]

    def second_column(order):
        """max over its rows of |second column of the sub-block's order-th derivative|."""
        return k(2, order) if d == 3 else np.maximum(k(2, order), k(3, order))

    k1 = k(1, 0)
    entries = [
        limit_entry("curvature-vanishes[k1]", "max|K^1|", k1, ladder, s, cfg),
        limit_entry("curvature-vanishes[k1'']", "max|d2 K^1|", k(1, 2), ladder, s, cfg),
    ]

    sub = np.max([np.zeros(s.shape)] + [k(i, 0) for i in range(2, d)], axis=0)
    entries.append(_sup_entry("curvature-bounded[K_sub]", "sup|K_sub|", sub))
    if d >= 3:
        entries.append(_sup_entry("curvature-bounded[K'^2]", "sup|d K^2|", k(2, 1)))

    quantities = {
        "k1": k1,
        "k1'": k(1, 1),
        "k1'''": k(1, 3),
    }
    if d >= 3:
        quantities.update(
            {
                "k2_col": k(2, 0),
                "k2_col''": k(2, 2),
                "K'K^2": second_column(1) * k(2, 0),
                "KK'^2": second_column(0) * k(2, 1),
            }
        )
    agg, subs = decay_entry("curvature-decay-rate", quantities, ladder, s, cfg)
    entries.append(agg)
    entries.extend(subs)
    return AssumptionReport(entries=tuple(entries), config=cfg)


# ---------------------------------------------------------------------------
# metric-level checks


def check_metric_hypotheses(metric, config=None):
    """Decay hypotheses on h directly, for strips where no generator exists.

    It takes the sampling of :func:`check_coefficient_assumptions`, so
    it refuses a metric whose h falls to the potential's floor as that
    check does, and a strip's gate, which runs both, samples once.
    """
    cfg = config or CheckerConfig()
    s, ladder, sup = _gate_sample(metric, cfg)
    entries = [
        limit_entry("metric-approach-flat[h-1]", "sup_u|h-1|", sup["dh"], ladder, s, cfg),
        limit_entry(
            "metric-approach-flat[h_ss]", "sup_u|h_,11|", sup["h_ss"], ladder, s, cfg
        ),
        limit_entry(
            "metric-approach-flat[grad_u^2]", "sup_u|h_,mu h_,mu|",
            sup["hu_sq"], ladder, s, cfg,
        ),
        limit_entry(
            "metric-approach-flat[lap_u]", "sup_u|h_,mumu|", sup["lap_u"], ladder, s, cfg
        ),
    ]
    quantities = {
        "h-1": sup["dh"],
        "h_s": sup["h_s"],
        "h_sss": sup["h_sss"],
        "grad_u^2_s": sup["hu_sq_s"],
        "lap_u_s": sup["lap_u_s"],
    }
    agg, subs = decay_entry("metric-decay-rate", quantities, ladder, s, cfg)
    entries.append(agg)
    entries.extend(subs)
    return AssumptionReport(entries=tuple(entries), config=cfg)


# the jet fields the metric check reads
_METRIC_FIELDS = ("dh", "h_s", "h_ss", "h_sss", "hu_sq", "hu_sq_s", "lap_u", "lap_u_s")


@lru_cache(maxsize=1)
def _gate_sample(metric, cfg):
    """(s, ladder, sups) of the metric and coefficient checks, from one full jet per block.

    The sups are those of the metric check's jet fields and of the
    coefficient check's G - 1, G^11_,1, V and V_,1.  The last metric's
    are kept until the coefficient check reads them: a strip's gate runs
    the metric check first, on the same sampling.
    """
    from .operators import g11_s, g_deviation, potential, potential_s, reciprocal

    ladder = default_ladder(metric.s_range)
    s = sample_abscissae(metric.s_range, cfg)

    def quantities(t, u):
        jet = metric.jet(t, u)
        r = reciprocal(jet, t)
        return {name: jet[name] for name in _METRIC_FIELDS} | {
            "G-1": g_deviation(jet, r),
            "G11_s": g11_s(jet, r),
            "V": potential(jet, r),
            "V_s": potential_s(jet, r),
        }

    return s, ladder, sampled_abs(quantities, s, _u_probe(metric.a, metric.dimension - 1))


# ---------------------------------------------------------------------------
# coefficient-level checks


def check_coefficient_assumptions(metric, config=None):
    """Verify the operator-level decay hypotheses on G and V numerically.

    Items checked, each over a ladder of tail radii R (sup over |s| > R,
    uniformly over a transverse probe set):

    * G-bounds:              0 < C- <= G <= C+ < inf
    * G-approach-identity:   sup|G - 1| -> 0
    * G-s-derivative-decay:  |G^11_,1| (and |G - 1| itself) fit
                             C <s>^-(1+theta) with theta in (0, 1]
    * G-divergence-bounded:  sup|G^1i_,i| finite
    * V-bounded / V-approach-zero / V-s-derivative-decay: likewise for V.

    Including the undifferentiated quantity in each decay fit is a
    deliberate strengthening: it makes the fitted theta reflect the
    slowest-decaying member and keeps the verdict conservative.  G and V
    are the functions of a metric jet that the assembly uses.
    """
    if metric is None:
        raise InputError("the free operator has no s_range to check over")
    cfg = config or CheckerConfig()
    # C- 1 <= G <= C+ 1 from c- <= h <= c+
    c_minus, c_plus = metric.bounds
    c_lo, c_hi = min(c_plus**-2.0, 1.0), max(c_minus**-2.0, 1.0)
    entries = [
        bounded_entry(
            "G-bounds",
            "eigenvalue bounds of G",
            ok=0.0 < c_lo <= c_hi < np.inf,
            notes=f"C-={c_lo!r} C+={c_hi!r}",
        )
    ]
    s, ladder, sup = _gate_sample(metric, cfg)
    _gate_sample.cache_clear()               # a gate runs this check last
    g_dev, g_der, v_abs, v_der = sup["G-1"], sup["G11_s"], sup["V"], sup["V_s"]
    entries.append(limit_entry("G-approach-identity", "sup|G-1|", g_dev, ladder, s, cfg))
    agg, subs = decay_entry(
        "G-s-derivative-decay", {"G11_s": g_der, "G-1": g_dev}, ladder, s, cfg
    )
    entries.append(agg)
    entries.extend(subs)
    entries.append(_sup_entry("G-divergence-bounded", "sup|G^1i_,i|", g_der))

    entries.append(_sup_entry("V-bounded", "sup|V|", v_abs))
    entries.append(limit_entry("V-approach-zero", "sup|V|", v_abs, ladder, s, cfg))
    agg, subs = decay_entry(
        "V-s-derivative-decay", {"V_s": v_der, "V": v_abs}, ladder, s, cfg
    )
    entries.append(agg)
    entries.extend(subs)
    return AssumptionReport(entries=tuple(entries), config=cfg)


def _u_probe(a, m):
    """Transverse probe points: 9 on an interval, a 5^m lattice in the ball."""
    if m == 1:
        return np.linspace(-a, a, 9)
    grids = np.meshgrid(*([np.linspace(-a, a, 5)] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts[np.linalg.norm(pts, axis=-1) <= a]


# ---------------------------------------------------------------------------
# basic well-posedness


def check_basic(metric=None, overlap=None, waive_overlap=False):
    """Tube well-posedness: curvature bound, ellipticity, self-overlap.

    The curvature-bound product is reported for euclidean tubes only:
    strips are gated through their Jacobi ellipticity bounds, and a tube
    with a * sup|kappa_1| >= 1 never gets a metric
    (``EllipticityError``).
    """
    entries = []
    if getattr(metric, "source", None) == "euclidean-tube":
        product = metric.a * metric.kappa1_sup
        entries.append(
            bounded_entry(
                "basic-curvature-bound", "a * sup|kappa_1|",
                ok=product < 1.0,
                notes=f"product={product!r} margin={1.0 - product!r}",
            )
        )
    if metric is not None:
        bounds = metric.bounds
        entries.append(
            bounded_entry(
                "basic-ellipticity", "c- <= h <= c+",
                ok=bounds.c_minus > 0.0,
                notes=f"c-={bounds.c_minus!r} c+={bounds.c_plus!r}",
            )
        )
    if waive_overlap:
        entries.append(
            HypothesisEntry(
                "basic-self-overlap", "tube embedding injective", "bounded", "pass",
                notes="waived (abstract manifold: only the base curve is embedded)",
            )
        )
    elif overlap is None:
        entries.append(
            HypothesisEntry(
                "basic-self-overlap", "tube embedding injective", "bounded",
                "inconclusive", notes="not checked",
            )
        )
    else:
        ok = bool(overlap.overlap_free)
        entries.append(
            HypothesisEntry(
                "basic-self-overlap", "tube embedding injective", "bounded",
                "pass" if ok else "fail",
                notes=(
                    "sampling certificate (evidence, not proof)"
                    if ok
                    else f"{overlap.pairs.shape[0]} offending pairs, e.g. arc "
                    f"separation {float(overlap.arc_separations[0])!r}"
                ),
            )
        )
    return AssumptionReport(entries=tuple(entries), config=CheckerConfig())
