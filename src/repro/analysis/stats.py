"""Statistical helpers: percentile summaries and median comparisons.

The paper reports almost everything as CDFs (Figures 1, 8, 9, 10) or
percentile statements ("improves the median by 86%").  These helpers turn
raw sample lists into the percentiles the result tables print.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def percentile_summary(
    values: Sequence[float], percentiles: Sequence[float] = (50, 90, 95, 99)
) -> Dict[float, float]:
    """Named percentiles of a sample."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    return {p: float(np.percentile(array, p)) for p in percentiles}


def median_improvement(baseline: Sequence[float], improved: Sequence[float]) -> float:
    """Relative median improvement: 0.8 means "80% lower at the median".

    This is the statistic behind the paper's "improves the median rule
    installation time by 86%, 94% and 80%".
    """
    base = float(np.median(np.asarray(baseline, dtype=float)))
    new = float(np.median(np.asarray(improved, dtype=float)))
    if base <= 0:
        raise ValueError("baseline median must be positive")
    return (base - new) / base


def increase_ratios(
    baseline: Dict[int, float], subject: Dict[int, float]
) -> List[float]:
    """Per-key ratios subject/baseline over the shared keys (Figure 1's
    'increased ratio of JCT')."""
    shared = sorted(set(baseline) & set(subject))
    ratios = []
    for key in shared:
        if baseline[key] > 0:
            ratios.append(subject[key] / baseline[key])
    return ratios
