"""Test-only reference: the histogram fit the program used before variable
projection, kept verbatim so the new fit can be checked against it.

It runs scipy's curve_fit (TRF least squares with a finite-difference
Jacobian) on both parameters, so it is about five times slower and stops at
curve_fit's ftol rather than at the exact minimiser.
"""
import warnings
from typing import Sequence

import numpy as np
from scipy.optimize import curve_fit

from triagesim.errors import InsufficientDataError, ParameterError
from triagesim.estimation import _MIN_FIT_SAMPLES, _MIN_OCCUPIED_BINS, HistogramFit


def fit_exponential_histogram(
    gaps: Sequence[float], bin_width: float, weighted: bool = False
) -> HistogramFit:
    """Fit a * exp(-t / m) to the histogram of gaps (least squares).

    The curve fit only runs when the histogram can support it
    (_MIN_FIT_SAMPLES gaps and several occupied bins); sparse histograms make
    two-parameter nonlinear fits drift badly upward. Below the threshold, or
    when the optimizer fails or pins to its bounds, the sample mean is
    reported with the r-squared measured against the exponential shape it
    implies (converged=False). With weighted=True, bins are weighted by
    their Poisson uncertainty during the fit.
    """
    values = np.asarray(gaps, dtype=float)
    if values.size < 2:
        raise InsufficientDataError(f"need at least 2 gaps to fit, got {values.size}")
    if bin_width <= 0:
        raise ParameterError(f"bin width must be > 0, got {bin_width}")
    n = values.size
    m_sample = float(values.mean())
    upper = max(bin_width, float(np.ceil(values.max() / bin_width)) * bin_width)
    edges = np.arange(0.0, upper + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(values, edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (n * bin_width)

    def model(t, amplitude, m):
        return amplitude * np.exp(-t / m)

    # Legitimate truncation corrections move the mean by a few percent, so a
    # fit escaping a 3x band around the sample mean is noise, not signal.
    lo_m, hi_m = m_sample / 3.0, m_sample * 3.0
    sigma = np.sqrt(np.maximum(counts, 1.0)) / (n * bin_width) if weighted else None
    converged = n >= _MIN_FIT_SAMPLES and int((counts > 0).sum()) >= _MIN_OCCUPIED_BINS
    if converged:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (amplitude, m_fit), _ = curve_fit(
                    model,
                    centers,
                    density,
                    p0=(1.0 / m_sample, m_sample),
                    sigma=sigma,
                    bounds=((0.0, lo_m), (np.inf, hi_m)),
                    maxfev=5000,
                )
            if m_fit >= 0.98 * hi_m or m_fit <= 1.02 * lo_m:
                converged = False
        except (RuntimeError, ValueError):
            converged = False
    if not converged:
        amplitude, m_fit = 1.0 / m_sample, m_sample
    predicted = model(centers, amplitude, m_fit)
    ss_res = float(np.sum((density - predicted) ** 2))
    ss_tot = float(np.sum((density - density.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return HistogramFit(float(m_fit), m_sample, r2, n, converged)
