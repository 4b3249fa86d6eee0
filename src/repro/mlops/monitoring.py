"""Monitoring: dashboards, drift detection, feedback (paper Figure 6, top).

Every MLOps phase reports counters and time series into a
:class:`Dashboard`.  :class:`DriftMonitor` compares serving-time feature
distributions against the training snapshot using PSI (Population
Stability Index) and the two-sample Kolmogorov-Smirnov test, and raises a
retraining signal when drift is sustained — the feedback loop that keeps
the production models current.  The KS test is computed in numpy
(:func:`ks_two_sample`): the statistic exactly, the p-value from the
asymptotic Kolmogorov distribution.

.. deprecated::
    :class:`Dashboard` / :class:`MetricSeries` are now a thin
    compatibility shim over :class:`repro.obs.MetricsRegistry` — the
    unified metrics surface shared with the replay/serving stack.  New
    code should register instruments on a registry directly; the shim
    keeps the lifecycle's dotted ``increment``/``record``/``snapshot``
    API working and mirrors everything into the backing registry (as
    ``repro_dashboard_*`` families) so one Prometheus export covers
    drift monitoring and replay alike.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import MetricsRegistry


@dataclass
class MetricSeries:
    """Time/value pairs (kept for drift tooling; latest mirrors to a
    registry gauge via :class:`Dashboard`)."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)

    def latest(self) -> float | None:
        return self.values[-1] if self.values else None

    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0


def _sanitize(name: str) -> str:
    """Dotted dashboard names -> valid prometheus metric names."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


class Dashboard:
    """Named counters and time series for all pipeline phases.

    Deprecated shim: values live in the backing
    :class:`~repro.obs.metrics.MetricsRegistry` (pass ``registry`` to
    share one export surface with an instrumented replay); ``snapshot()``
    reads them back under the original dotted names.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.series: dict[str, MetricSeries] = defaultdict(MetricSeries)
        self._counter_names: dict[str, str] = {}  # dotted -> registry name

    def increment(self, name: str, amount: float = 1.0) -> None:
        metric = self._counter_names.get(name)
        if metric is None:
            metric = "repro_dashboard_" + _sanitize(name) + "_total"
            self._counter_names[name] = metric
        self.registry.counter(
            metric, "MLOps dashboard counter %r." % name
        ).inc(amount)

    def record(self, name: str, t: float, value: float) -> None:
        self.series[name].record(t, value)
        self.registry.gauge(
            "repro_dashboard_" + _sanitize(name) + "_latest",
            "MLOps dashboard series %r (latest value)." % name,
        ).set(value)

    @property
    def counters(self) -> dict[str, float]:
        """Back-compat view of the registry's dashboard counters."""
        return {
            dotted: self.registry.get(metric).labels().value
            for dotted, metric in self._counter_names.items()
        }

    def snapshot(self) -> dict[str, float]:
        summary = dict(self.counters)
        for name, series in self.series.items():
            latest = series.latest()
            if latest is not None:
                summary[f"{name}.latest"] = latest
        return summary


def population_stability_index(
    expected: np.ndarray, observed: np.ndarray, bins: int = 10
) -> float:
    """PSI between a reference sample and an observed sample.

    Common operational reading: < 0.1 stable, 0.1-0.25 moderate shift,
    > 0.25 significant shift.
    """
    expected = np.asarray(expected, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if expected.size == 0 or observed.size == 0:
        return 0.0
    quantiles = np.quantile(expected, np.linspace(0.0, 1.0, bins + 1))
    edges = np.unique(quantiles)
    if edges.size < 3:
        return 0.0
    expected_hist, _ = np.histogram(expected, bins=edges)
    observed_hist, _ = np.histogram(observed, bins=edges)
    expected_frac = np.clip(expected_hist / expected.size, 1e-6, None)
    observed_frac = np.clip(observed_hist / observed.size, 1e-6, None)
    return float(np.sum((observed_frac - expected_frac)
                        * np.log(observed_frac / expected_frac)))


def _kolmogorov_sf(x: float) -> float:
    """``P(K > x)`` for the Kolmogorov limiting distribution of ``sqrt(n) * D``.

    Below ``x = 1.18`` the Jacobi-transformed series of the CDF,
    ``sqrt(2 pi) / x * sum exp(-(2k-1)^2 pi^2 / (8 x^2))``, converges in a
    few terms; above it the alternating series
    ``2 * sum (-1)^(k-1) exp(-2 k^2 x^2)`` does.
    """
    if x <= 0.0:
        return 1.0
    k = np.arange(1, 9)
    if x < 1.18:
        cdf = np.sqrt(2.0 * np.pi) / x * np.sum(
            np.exp(-((2 * k - 1) ** 2) * np.pi**2 / (8.0 * x * x))
        )
        return float(min(1.0, max(0.0, 1.0 - cdf)))
    sf = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * x * x))
    return float(min(1.0, max(0.0, sf)))


def ks_two_sample(reference: np.ndarray, observed: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic ``D`` and its p-value.

    ``D`` is the largest gap between the two empirical CDFs, read at every
    pooled sample point (two ``searchsorted`` calls, so ties count once).
    The p-value is the asymptotic one: the Kolmogorov survival function at
    ``sqrt(en) * D`` with ``en = n1 * n2 / (n1 + n2)``.
    """
    reference = np.sort(np.asarray(reference, dtype=float))
    observed = np.sort(np.asarray(observed, dtype=float))
    pooled = np.concatenate([reference, observed])
    gaps = (
        np.searchsorted(reference, pooled, side="right") / reference.size
        - np.searchsorted(observed, pooled, side="right") / observed.size
    )
    statistic = float(np.max(np.abs(gaps)))
    en = reference.size * observed.size / (reference.size + observed.size)
    return statistic, _kolmogorov_sf(np.sqrt(en) * statistic)


@dataclass(frozen=True)
class DriftReport:
    feature: str
    psi: float
    ks_statistic: float
    ks_pvalue: float

    def is_drifted(self, psi_threshold: float = 0.25, alpha: float = 0.01) -> bool:
        return self.psi > psi_threshold and self.ks_pvalue < alpha


class DriftMonitor:
    """Feature-distribution drift against a training reference."""

    def __init__(
        self,
        reference: np.ndarray,
        feature_names: list[str],
        psi_threshold: float = 0.25,
        min_samples: int = 50,
    ):
        reference = np.asarray(reference, dtype=float)
        if reference.ndim != 2 or reference.shape[1] != len(feature_names):
            raise ValueError("reference shape does not match feature names")
        self.reference = reference
        self.feature_names = list(feature_names)
        self.psi_threshold = psi_threshold
        self.min_samples = min_samples
        self._buffer: list[np.ndarray] = []

    def observe(self, vector: np.ndarray) -> None:
        self._buffer.append(np.asarray(vector, dtype=float))

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def check(self) -> list[DriftReport]:
        """Drift reports for every feature (empty until enough samples)."""
        if len(self._buffer) < self.min_samples:
            return []
        observed = np.vstack(self._buffer)
        reports = []
        for index, name in enumerate(self.feature_names):
            ref_column = self.reference[:, index]
            obs_column = observed[:, index]
            if np.allclose(ref_column.std(), 0) and np.allclose(obs_column.std(), 0):
                continue
            statistic, pvalue = ks_two_sample(ref_column, obs_column)
            reports.append(
                DriftReport(
                    feature=name,
                    psi=population_stability_index(ref_column, obs_column),
                    ks_statistic=statistic,
                    ks_pvalue=pvalue,
                )
            )
        return reports

    def needs_retraining(self, drifted_feature_fraction: float = 0.2) -> bool:
        """Retrain when a sustained fraction of features has drifted."""
        reports = self.check()
        if not reports:
            return False
        drifted = sum(report.is_drifted(self.psi_threshold) for report in reports)
        return drifted / len(reports) >= drifted_feature_fraction

    def reset(self) -> None:
        self._buffer.clear()
