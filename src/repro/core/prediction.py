"""Rule-arrival-rate predictors (Section 5.1 of the paper).

The Rule Manager must migrate rules out of the shadow table *before* it
overflows.  Hermes therefore predicts the next interval's rule arrivals from
the observed time series.  The paper explores three predictors — EWMA, Cubic
Spline, and ARMA — and finds Cubic Spline (combined with the Slack corrector)
the most effective.  All three are implemented here behind one interface.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import Deque, Optional

import numpy as np
from scipy.interpolate import CubicSpline


class Predictor(abc.ABC):
    """Online one-step-ahead predictor of rule arrival counts."""

    @abc.abstractmethod
    def update(self, value: float) -> None:
        """Feed the arrival count observed in the interval that just ended."""

    @abc.abstractmethod
    def predict(self) -> float:
        """Predict the arrival count of the next interval (never negative)."""

    def forecast_ceiling(self) -> float:
        """A cheap upper bound on :meth:`predict` (``inf`` when none is known).

        Lets a trigger skip an expensive fit whose forecast could not change
        its decision.
        """
        return math.inf

    def observe_and_predict(self, value: float) -> float:
        """Convenience: update with an observation, then predict."""
        self.update(value)
        return self.predict()


class EwmaPredictor(Predictor):
    """Exponentially weighted moving average [Lucas & Saccucci 1990].

    ``alpha`` close to 1 tracks recent samples aggressively; close to 0
    smooths heavily.
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._level: Optional[float] = None

    def update(self, value: float) -> None:
        """Blend the new observation into the smoothed level."""
        if self._level is None:
            self._level = float(value)
        else:
            self._level = self.alpha * float(value) + (1.0 - self.alpha) * self._level

    def predict(self) -> float:
        """The smoothed level is the one-step forecast."""
        return max(0.0, self._level if self._level is not None else 0.0)


class CubicSplinePredictor(Predictor):
    """Cubic-spline extrapolation over a sliding window [de Boor 1978].

    Fits a natural cubic spline through the last ``window`` observations and
    evaluates it one step past the end.  With fewer than four samples it
    falls back to the last observation (splines need >= 4 points).
    Extrapolations are clamped to a multiple of the window maximum so a
    steep spline tail cannot produce absurd forecasts.
    """

    def __init__(self, window: int = 8, clamp_factor: float = 3.0) -> None:
        if window < 4:
            raise ValueError(f"spline window must be >= 4, got {window}")
        self.window = window
        self.clamp_factor = clamp_factor
        self._samples: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        """Append to the sliding window."""
        self._samples.append(float(value))

    def predict(self) -> float:
        """Extrapolate one step beyond the window with a cubic spline."""
        if not self._samples:
            return 0.0
        if len(self._samples) < 4:
            return max(0.0, self._samples[-1])
        ys = np.asarray(self._samples, dtype=float)
        xs = np.arange(len(ys), dtype=float)
        spline = CubicSpline(xs, ys, bc_type="natural")
        forecast = float(spline(len(ys)))
        ceiling = self.clamp_factor * float(ys.max())
        return float(np.clip(forecast, 0.0, ceiling))

    def forecast_ceiling(self) -> float:
        """The clamp of :meth:`predict`, without fitting the spline."""
        if len(self._samples) < 4:
            return self.predict()
        return self.clamp_factor * max(self._samples)


class ArmaPredictor(Predictor):
    """ARMA(p, q) forecaster [Whittle 1951] fit by Hannan–Rissanen.

    A lightweight two-stage estimator: first fit a long autoregression to
    estimate innovations, then regress the series on its own lags and the
    lagged innovations.  Falls back to the sample mean (or last value) while
    the window is too short for a stable fit.
    """

    def __init__(self, p: int = 2, q: int = 1, window: int = 32) -> None:
        if p < 1 or q < 0:
            raise ValueError(f"need p >= 1 and q >= 0, got p={p} q={q}")
        min_window = 4 * (p + q + 1)
        if window < min_window:
            raise ValueError(f"window {window} too small for ARMA({p},{q})")
        self.p = p
        self.q = q
        self.window = window
        self._samples: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        """Append to the sliding window."""
        self._samples.append(float(value))

    def predict(self) -> float:
        """One-step ARMA forecast over the current window."""
        count = len(self._samples)
        if count == 0:
            return 0.0
        ys = np.asarray(self._samples, dtype=float)
        if count < 3 * (self.p + self.q + 1):
            return max(0.0, float(ys.mean()))
        mean = ys.mean()
        centered = ys - mean
        innovations = self._estimate_innovations(centered)
        design_rows = []
        targets = []
        start = max(self.p, self.q)
        for t in range(start, count):
            ar_terms = [centered[t - lag] for lag in range(1, self.p + 1)]
            ma_terms = [innovations[t - lag] for lag in range(1, self.q + 1)]
            design_rows.append(ar_terms + ma_terms)
            targets.append(centered[t])
        design = np.asarray(design_rows, dtype=float)
        target = np.asarray(targets, dtype=float)
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        ar_coeffs = coefficients[: self.p]
        ma_coeffs = coefficients[self.p :]
        ar_part = sum(
            ar_coeffs[lag - 1] * centered[count - lag] for lag in range(1, self.p + 1)
        )
        ma_part = sum(
            ma_coeffs[lag - 1] * innovations[count - lag]
            for lag in range(1, self.q + 1)
        )
        forecast = mean + ar_part + ma_part
        ceiling = 3.0 * float(ys.max()) if ys.max() > 0 else 1.0
        return float(np.clip(forecast, 0.0, ceiling))

    def _estimate_innovations(self, centered: np.ndarray) -> np.ndarray:
        """Stage 1 of Hannan–Rissanen: residuals of a long AR fit."""
        count = len(centered)
        long_order = min(max(self.p + self.q, 2) * 2, count // 2)
        innovations = np.zeros(count)
        design_rows = []
        targets = []
        for t in range(long_order, count):
            design_rows.append([centered[t - lag] for lag in range(1, long_order + 1)])
            targets.append(centered[t])
        if not design_rows:
            return innovations
        design = np.asarray(design_rows, dtype=float)
        target = np.asarray(targets, dtype=float)
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        for t in range(long_order, count):
            lagged = np.asarray(
                [centered[t - lag] for lag in range(1, long_order + 1)]
            )
            innovations[t] = centered[t] - float(coefficients @ lagged)
        return innovations


PREDICTOR_NAMES = ("ewma", "cubic-spline", "arma")


def make_predictor(name: str, **kwargs) -> Predictor:
    """Build a predictor by registry name (``ewma``/``cubic-spline``/``arma``).

    Extra keyword arguments are forwarded to the predictor's constructor.
    """
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    if key == "ewma":
        return EwmaPredictor(**kwargs)
    if key in ("cubic-spline", "cubic", "spline"):
        return CubicSplinePredictor(**kwargs)
    if key == "arma":
        return ArmaPredictor(**kwargs)
    raise KeyError(f"unknown predictor {name!r}; known: {', '.join(PREDICTOR_NAMES)}")
