"""Prediction-error correctors (Section 5.1 of the paper).

Workloads change abruptly, so raw forecasts under-shoot.  Hermes compensates
with control-theoretic corrections: *Slack* inflates the prediction by a
constant factor (a slack of 40% turns 1000 into 1400); *Deadzone* adds a
constant headroom of rules (a deadzone of 100 turns 1000 into 1100).  The
paper finds Cubic Spline + Slack (at 100% slack by default) most effective.
"""

from __future__ import annotations

import abc


class Corrector(abc.ABC):
    """Post-processor applied to a predictor's forecast."""

    @abc.abstractmethod
    def apply(self, prediction: float) -> float:
        """Return the inflated forecast (never below the raw prediction).

        Must be monotone non-decreasing in ``prediction``: the predictive
        trigger relies on it to skip forecasts bounded below the capacity.
        """


class SlackCorrector(Corrector):
    """Multiplicative inflation: ``prediction * (1 + slack)``."""

    def __init__(self, slack: float = 1.0) -> None:
        """``slack`` is a fraction: 0.4 means +40%, 1.0 means +100%."""
        if slack < 0.0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        self.slack = slack

    def apply(self, prediction: float) -> float:
        """Inflate the forecast by the configured factor."""
        return prediction * (1.0 + self.slack)

    def __repr__(self) -> str:
        return f"SlackCorrector(slack={self.slack:.2f})"


class DeadzoneCorrector(Corrector):
    """Additive inflation: ``prediction + margin`` rules."""

    def __init__(self, margin: float = 100.0) -> None:
        """``margin`` is an absolute rule count added to every forecast."""
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.margin = margin

    def apply(self, prediction: float) -> float:
        """Add the configured headroom to the forecast."""
        return prediction + self.margin

    def __repr__(self) -> str:
        return f"DeadzoneCorrector(margin={self.margin:.0f})"


class NoCorrection(Corrector):
    """Pass-through corrector (for ablations)."""

    def apply(self, prediction: float) -> float:
        """Return the forecast unchanged."""
        return prediction

    def __repr__(self) -> str:
        return "NoCorrection()"


CORRECTOR_NAMES = ("slack", "deadzone", "none")


def make_corrector(name: str, **kwargs) -> Corrector:
    """Build a corrector by registry name (``slack``/``deadzone``/``none``)."""
    key = name.strip().lower()
    if key == "slack":
        return SlackCorrector(**kwargs)
    if key == "deadzone":
        return DeadzoneCorrector(**kwargs)
    if key in ("none", "off"):
        return NoCorrection()
    raise KeyError(f"unknown corrector {name!r}; known: {', '.join(CORRECTOR_NAMES)}")
