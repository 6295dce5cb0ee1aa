"""Bi-normal ROC curve completed from a single operating point.

A device summary usually reports one (sensitivity, specificity) pair. Under
the bi-normal model TPF = Phi(a + b * PhiInv(FPF)); with the equal-variance
convention b = 1 the single point determines the curve. The slope is exposed
for sensitivity analysis but there is no information in one point to fit it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import check_fields, integer, positive, share


@dataclass(frozen=True)
class BinormalRoc:
    """Curve parameters: separation a and slope b of
    TPF = Phi(a + b * PhiInv(FPF))."""

    a: float
    b: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, positive, "b")


def fit_from_point(tpf: float, fpf: float, slope: float = 1.0) -> BinormalRoc:
    """Complete a bi-normal curve through one interior operating point.

    With the slope fixed (equal-variance convention b = 1 unless overridden),
    a = PhiInv(tpf) - b * PhiInv(fpf) and the curve passes through the point
    exactly.
    """
    share("tpf", tpf, interior=True)
    share("fpf", fpf, interior=True)
    a = float(ndtri(tpf) - positive("slope", slope) * ndtri(fpf))
    return BinormalRoc(a=a, b=slope)


def roc_tpf(curve: BinormalRoc, fpf: float) -> float:
    """TPF at a given FPF; endpoints map 0 -> 0 and 1 -> 1 by continuity."""
    if share("fpf", fpf) == 0.0:
        return 0.0
    if fpf == 1.0:
        return 1.0
    return float(ndtr(curve.a + curve.b * ndtri(fpf)))


def auc(curve: BinormalRoc) -> float:
    """Area under the bi-normal curve: Phi(a / sqrt(1 + b^2))."""
    return float(ndtr(curve.a / math.sqrt(1.0 + curve.b * curve.b)))


def sample_operating_points(curve: BinormalRoc, n: int) -> list[tuple[float, float]]:
    """n (fpf, tpf) points with FPF uniformly spaced on [0, 1] inclusive."""
    n = integer("n", n, low=2)
    points = []
    for k in range(n):
        fpf = k / (n - 1)
        points.append((fpf, roc_tpf(curve, fpf)))
    return points
