"""Workload model.

Memory errors only manifest when the faulty region is accessed, so CE
arrival intensity tracks the server's memory traffic.  We model this with a
per-server utilisation level plus a shared diurnal cycle; the fleet
simulator thins each fault's Poisson activations accordingly (an exact
inhomogeneous-Poisson construction).

The paper (and [Wang et al., VTS'21]) found workload features play a minor
role next to CE-derived features; the model here exists to (a) make arrival
processes realistically non-stationary and (b) let the feature ablation
(benchmark A1) confirm that same conclusion on our data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WorkloadModel:
    """Multiplicative intensity model: ``base * (1 + amp * sin(...))``.

    ``base`` is the server's mean utilisation factor (dimensionless, ~1),
    ``diurnal_amplitude`` scales the 24-hour cycle, ``phase_hours`` shifts
    it per server.
    """

    base: float = 1.0
    diurnal_amplitude: float = 0.3
    phase_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    def intensity(self, hours: np.ndarray | float) -> np.ndarray | float:
        """Relative access intensity at time ``hours``."""
        cycle = np.sin(2.0 * np.pi * (np.asarray(hours) + self.phase_hours) / 24.0)
        return self.base * (1.0 + self.diurnal_amplitude * cycle)

    @property
    def peak_intensity(self) -> float:
        return self.base * (1.0 + self.diurnal_amplitude)


def sample_workload(rng: np.random.Generator) -> WorkloadModel:
    """Draw a server's workload model (log-normal utilisation, random phase)."""
    base = float(np.exp(rng.normal(0.0, 0.35)))
    amplitude = float(rng.uniform(0.15, 0.45))
    phase = float(rng.uniform(0.0, 24.0))
    return WorkloadModel(base=base, diurnal_amplitude=amplitude, phase_hours=phase)
