"""Uniform-grid samples on a symmetric window [-L, L]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampledFunction:
    """Values on the uniform grid x_k = -L + k*step, k = 0..round(2L/step).

    Both endpoints are stored; periodic algorithms treat the last sample as
    the wrap-around duplicate of the first.
    """

    halfwidth: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        n = round(2 * self.halfwidth / self.step) + 1
        if len(self.values) != n:
            raise ValueError(f"expected {n} samples for L={self.halfwidth}, step={self.step}")

    def xs(self) -> np.ndarray:
        n = len(self.values)
        return -self.halfwidth + self.step * np.arange(n)

    def interior(self, frac: float = 0.8) -> np.ndarray:
        """Boolean mask selecting the central `frac` of the window."""
        xs = self.xs()
        return np.abs(xs) <= frac * self.halfwidth

    def is_real(self, tol: float = 1e-9) -> bool:
        scale = float(np.max(np.abs(self.values))) if len(self.values) else 0.0
        return float(np.max(np.abs(self.values.imag))) <= tol * max(scale, 1.0)

