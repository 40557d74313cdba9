"""Span and counter recorder for the traced benchmark run.

The tracer wraps public names of ``tubespectra`` at the namespaces where
the pipeline looks them up (mostly ``tubespectra.cli``), the public
evaluation methods of the metric classes, and ``scipy``'s ``splu`` at
every module that holds it.  Nothing inside the package is edited: the
wrappers are installed on module and class attributes and removed again
by ``uninstall``.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
the index of the enclosing span (-1 for none).  Spans stay in memory and
are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children; the layer of a span
is the part of its name before the first dot.

Metric evaluations nest (``h_s`` calls ``h`` in the strip metric, the
coefficient field calls ``h`` and ``hu_sq``...).  Only the outermost
metric call records a span and counts its points.  LU solves are counted
and timed but record no span: there are thousands of them per run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module attribute in tubespectra.cli, span name)
CLI_SPANS = (
    ("cross_section_spectrum", "cross_section.thresholds"),
    ("integrate_tang_rotation", "frames.rotation"),
    ("overlap_certificate", "frames.overlap"),
    ("build_frame_field", "frames.frame_field"),
    ("tube_embedding", "frames.embedding"),
    ("check_self_overlap", "frames.self_overlap"),
    ("metric_from_profile", "metric.build"),
    ("metric_from_frames", "metric.build"),
    ("metric_from_jacobi", "metric.build"),
    ("assumption_gate", "assumptions.gate"),
    ("check_basic", "assumptions.basic"),
    ("check_curvature_decay", "assumptions.decay"),
    ("check_metric_hypotheses", "assumptions.decay"),
    ("check_coefficient_assumptions", "assumptions.coefficients"),
    ("grid_for", "operators.grid"),
    ("assemble_hamiltonian", "operators.assemble"),
    ("assemble_free_hamiltonian", "operators.assemble"),
    ("assemble_commutator", "spectral.assemble_commutator"),
    ("bound_states", "spectral.bound_states"),
    ("mourre_check_free", "spectral.mourre"),
    ("render_report", "reporting.render"),
    ("_write", "reporting.write"),
    ("write_spectrum_csv", "reporting.write"),
    ("write_mourre_csv", "reporting.write"),
)

METRIC_METHODS = (
    "h", "h_s", "h_ss", "h_sss", "h_u", "hu_sq", "hu_sq_s",
    "cross_su", "lap_u", "lap_u_s", "det_g",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.solve_keys = []          # one key per ladder eigensolve
        self.eigsolve_sizes = []      # (span index, n) per eigensolve
        self.last = -1                # index of the span that just closed
        self._metric_depth = 0
        self._patches = []

    def reset(self):
        """Forget spans and counts, keeping the wrappers installed."""
        self.spans.clear()
        self.counts.clear()
        self.solve_keys.clear()
        self.eigsolve_sizes.clear()

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.last = idx

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        self._patch(owner, attr, traced)

    def wrap_metric_method(self, cls, attr):
        fn = cls.__dict__[attr]
        tracer = self
        name = f"metric.{attr}"

        def traced(obj, s, u, *args, **kwargs):
            if tracer._metric_depth:
                return fn(obj, s, u, *args, **kwargs)
            tracer._metric_depth += 1
            try:
                result = tracer.call(name, fn, (obj, s, u) + args, kwargs)
            finally:
                tracer._metric_depth -= 1
            tracer.counts["metric.eval_calls"] += 1
            # drop u's trailing component axis (always there when d > 2)
            u = np.asarray(u)
            if u.ndim and (obj.dimension > 2 or u.shape[-1] == 1):
                u = u[..., 0]
            tracer.counts["metric.eval_points"] += np.broadcast(s, u).size
            return result

        traced.__wrapped__ = fn
        self._patch(cls, attr, traced)

    # -- installation --------------------------------------------------------
    def install(self):
        import scipy.sparse.linalg  # noqa: F401  (loads ARPACK's module too)

        from tubespectra import cli, config, metric, spectral

        for attr, name in CLI_SPANS:
            self.wrap(cli, attr, name, after=_AFTER.get(attr))
        self.wrap(config.WaveguideConfig, "profile", "profiles.build")
        self.wrap(config.WaveguideConfig, "cross_section", "cross_section.build")
        self.wrap(config.WaveguideConfig, "render", "config.render")
        self.wrap(metric, "ellipticity_bounds", "metric.bounds")
        self.wrap(spectral, "lowest_eigenvalues", "spectral.lowest_eigenvalues",
                  after=_after_lowest_eigenvalues)
        self.wrap(spectral, "_eigenpairs_near", "spectral.eigenpairs_near",
                  after=_after_eigenpairs_near)
        for cls in (metric.TubeMetric, metric.EuclideanTubeMetric,
                    metric.SurfaceStripMetric):
            for attr in METRIC_METHODS:
                if attr in cls.__dict__:
                    self.wrap_metric_method(cls, attr)
        self._install_splu()

    def _install_splu(self):
        """Count factorizations and solves at every module holding splu."""
        import scipy.sparse.linalg as spla

        original = spla.splu
        tracer = self

        def splu(*args, **kwargs):
            lu = tracer.call("spectral.factorize", original, args, kwargs)
            tracer.counts["spectral.factorizations"] += 1
            tracer.counts["spectral.lu_fill_nnz"] += lu.nnz  # no copy of L, U
            return CountingLU(lu, tracer.counts)

        holders = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name.startswith("scipy.sparse.linalg") or name.startswith("tubespectra"))
            and getattr(mod, "__dict__", {}).get("splu") is original
        ]
        for mod in holders:
            self._patch(mod, "splu", splu)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------
    def self_times(self):
        """Self seconds per span name: duration minus direct children."""
        own = [t1 - t0 for _, t0, t1, _ in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        out = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            out[name] += seconds
        return dict(out)

    def inclusive(self, *names):
        """Wall time under the outermost spans with any of these names."""
        wanted = set(names)
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if name in wanted and not self._has_ancestor(parent, wanted):
                total += t1 - t0
        return total

    def _has_ancestor(self, idx, names):
        while idx >= 0:
            if self.spans[idx][0] in names:
                return True
            idx = self.spans[idx][3]
        return False


class CountingLU:
    """SuperLU proxy that counts and times ``solve``; all else delegates."""

    __slots__ = ("_lu", "_counts")

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, trans="N"):
        t0 = time.perf_counter()
        out = self._lu.solve(rhs, trans)
        self._counts["spectral.lu_solve_s"] += time.perf_counter() - t0
        self._counts["spectral.lu_solves"] += 1
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _operator_key(op):
    m = getattr(op, "matrix", op)
    grid = getattr(op, "grid", None)
    if grid is None:
        return (m.shape, m.nnz)
    return (getattr(op, "tag", None), grid.full_shape, float(grid.length),
            tuple(grid.spacings), m.nnz)


def _after_lowest_eigenvalues(tracer, args, kwargs, result):
    op = args[0]
    tracer.solve_keys.append(_operator_key(op))
    tracer.eigsolve_sizes.append((tracer.last, op.shape[0]))


def _after_eigenpairs_near(tracer, args, kwargs, result):
    tracer.counts["spectral.mourre_eigpairs"] += len(result[0])
    tracer.eigsolve_sizes.append((tracer.last, args[0].shape[0]))


def _after_operator(tracer, args, kwargs, op):
    tracer.counts["operators.assemble_calls"] += 1
    tracer.counts["operators.nnz_total"] += op.matrix.nnz
    tracer.counts["operators.unknowns_finest"] = max(
        tracer.counts["operators.unknowns_finest"], op.shape[0]
    )


def _after_overlap(tracer, args, kwargs, result):
    tracer.counts["frames.overlap_samples"] += args[0].points.shape[0]


def _after_write_text(tracer, args, kwargs, result):
    tracer.counts["reporting.bytes"] += len(args[2].encode())


def _after_write_csv(tracer, args, kwargs, result):
    tracer.counts["reporting.bytes"] += os.path.getsize(args[0])


_AFTER = {
    "assemble_hamiltonian": _after_operator,
    "assemble_free_hamiltonian": _after_operator,
    "check_self_overlap": _after_overlap,
    "_write": _after_write_text,
    "write_spectrum_csv": _after_write_csv,
    "write_mourre_csv": _after_write_csv,
}
