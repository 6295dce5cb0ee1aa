"""Turnaround-time summary statistics and the pre/post comparison test."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import InsufficientDataError


@dataclass(frozen=True)
class TatSummary:
    n: int
    mean: float
    ci95: tuple[float, float]
    percentiles: tuple[float, float, float]  # 2.5th, 50th, 97.5th


def tat_summary(tats: Sequence[float]) -> TatSummary:
    """Mean with t-based 95% CI plus empirical (2.5, 50, 97.5) percentiles."""
    values = np.asarray(tats, dtype=float)
    if values.size < 2:
        raise InsufficientDataError(f"need >= 2 values, got {values.size}")
    n = values.size
    mean = float(values.mean())
    half = float(stdtrit(n - 1, 0.975) * values.std(ddof=1) / np.sqrt(n))
    p_lo, p_md, p_hi = np.percentile(values, [2.5, 50.0, 97.5])
    return TatSummary(
        n=n,
        mean=mean,
        ci95=(mean - half, mean + half),
        percentiles=(float(p_lo), float(p_md), float(p_hi)),
    )


@dataclass(frozen=True)
class WelchResult:
    diff_of_means: float
    ci95: tuple[float, float]
    p_one_sided: float
    dof: float


def time_savings_test(pre: Sequence[float], post: Sequence[float]) -> WelchResult:
    """Welch comparison of mean(pre) - mean(post).

    Returns the difference, its 95% CI, and the one-sided p-value for the
    difference being greater than zero.
    """
    a = np.asarray(pre, dtype=float)
    b = np.asarray(post, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("each sample needs >= 2 values")
    diff = float(a.mean() - b.mean())
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    se = float(np.sqrt(va + vb))
    if se == 0.0:
        p = 0.5 if diff == 0.0 else (0.0 if diff > 0.0 else 1.0)
        return WelchResult(diff, (diff, diff), p, float(a.size + b.size - 2))
    dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    half = float(stdtrit(dof, 0.975) * se)
    p_one = float(stdtr(dof, -diff / se))
    return WelchResult(diff, (diff - half, diff + half), p_one, float(dof))
