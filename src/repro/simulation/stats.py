"""Small statistics kit for the Monte-Carlo fault campaigns.

Campaign estimates carry uncertainty: disconnection probabilities are
binomial proportions reported with Wilson score intervals (well-behaved at
the boundary -- most fault points see *zero* disconnections, where the naive
normal interval collapses to a meaningless ``0 +/- 0``), and mean route
stretch is reported with a normal-approximation interval over the per-pair
stretch samples.  Every per-statistic interval is 95% (:data:`Z_95`); the joint
cross-family intervals (:func:`simultaneous_intervals`,
:func:`rank_intervals`) are Bonferroni and Holm at the requested confidence.

Trial seeding lives here too: :func:`derive_trial_seed` hashes the campaign
seed together with the trial's coordinates so that every trial draws from an
independent, *order-free* stream -- trial 17 of fault point 3 sees the same
randomness whether the campaign runs serially, sharded, or restarted, which
is what keeps the FAULT-* experiments pure functions of their parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "Z_95",
    "derive_trial_seed",
    "wilson_interval",
    "mean_interval",
    "moments_interval",
    "normal_cdf",
    "normal_quantile",
    "simultaneous_intervals",
    "holm_rejections",
    "RankInterval",
    "rank_intervals",
]

#: Two-sided 95% normal critical value used by every campaign interval.
Z_95 = 1.959963984540054


def derive_trial_seed(seed: int, *coordinates: object) -> int:
    """A stable, independent RNG seed for one trial of a campaign.

    Hashes (SHA-256) the canonical JSON of ``(seed, *coordinates)`` down to
    a 64-bit integer.  Coordinates are whatever identifies the trial -- e.g.
    ``(family, fault_count, trial_index)`` -- so distinct trials get
    decorrelated streams while the same trial is reproducible from params
    alone, independent of execution order or process boundaries.
    """
    blob = json.dumps([seed, *coordinates], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def wilson_interval(successes: int, trials: int) -> Tuple[float, float, float]:
    """95% Wilson score interval for a binomial proportion.

    Parameters
    ----------
    successes : int
        Observed successes (``0 <= successes <= trials``).
    trials : int
        Number of Bernoulli trials (positive).

    Returns
    -------
    (p_hat, low, high)
        The point estimate and the interval bounds, each in ``[0, 1]``.
        Unlike the naive normal interval, the bounds stay informative at the
        boundary: ``successes = 0`` yields ``(0, 0, z^2 / (n + z^2))`` with
        ``z =`` :data:`Z_95`.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials!r}")
    if not 0 <= successes <= trials:
        raise InvalidParameterError(
            f"successes must be in [0, {trials}], got {successes!r}"
        )
    p_hat = successes / trials
    z = Z_95
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4 * trials * trials))
        / denominator
    )
    return p_hat, max(0.0, centre - margin), min(1.0, centre + margin)


def mean_interval(values: Sequence[float]) -> Tuple[float, float, float]:
    """95% normal-approximation confidence interval for a sample mean.

    Returns ``(mean, low, high)``; with fewer than two samples the interval
    degenerates to the point estimate (there is no spread to estimate).
    Raises :class:`~repro.exceptions.InvalidParameterError` on an empty
    sample -- campaigns report "no reroutable pairs" explicitly instead of
    passing an empty list here.
    """
    n = len(values)
    if n == 0:
        raise InvalidParameterError("mean_interval needs at least one sample")
    mean = sum(values) / n
    if n == 1:
        return mean, mean, mean
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    margin = Z_95 * math.sqrt(variance / n)
    return mean, mean - margin, mean + margin


def moments_interval(
    total: int, total_squares: int, count: int
) -> Tuple[float, float, float]:
    """:func:`mean_interval` from exact integer moments instead of samples.

    The sampled whole-graph estimators (:mod:`repro.simulation.sampling`)
    accumulate ``sum(x)`` and ``sum(x^2)`` as Python/NumPy int64 running
    totals over millions of integer distance samples -- exact, chunk-order
    independent, and never materialising the sample array.  This helper turns
    those moments into the same normal-approximation interval
    ``mean +/- Z_95 * sqrt(s^2 / n)`` with the ``n - 1`` sample variance, so
    ``moments_interval(sum(xs), sum(x*x for x in xs), len(xs))`` agrees with
    ``mean_interval(xs)`` (the cross-check lives in the sampling tests).

    Returns ``(mean, low, high)``; one sample degenerates to the point
    estimate, zero samples raise
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if count <= 0:
        raise InvalidParameterError("moments_interval needs at least one sample")
    total = int(total)
    total_squares = int(total_squares)
    count = int(count)
    mean = total / count
    if count == 1:
        return mean, mean, mean
    # n * sum(x^2) - sum(x)^2 is an exact integer (no catastrophic
    # cancellation); divide once at the end.
    variance = (count * total_squares - total * total) / (count * (count - 1))
    margin = Z_95 * math.sqrt(max(0.0, variance) / count)
    return mean, mean - margin, mean + margin


def normal_cdf(x: float) -> float:
    """Standard normal CDF via :func:`math.erfc` (accurate in both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Acklam's rational approximation to the inverse normal CDF; the raw
# approximation is good to ~1.15e-9, and the Halley refinement below pushes
# it to machine precision against the erfc-based CDF.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (the two-sided critical values' source).

    ``normal_quantile(0.975)`` recovers :data:`Z_95`; the simultaneous
    intervals need arbitrary quantiles (``1 - alpha / (2K)``) that no fixed
    constant table covers.  Acklam's rational approximation refined with one
    Halley step against the exact :func:`normal_cdf`; accurate to ~1e-15
    across ``(0, 1)`` without any SciPy dependency.
    """
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(
            f"normal_quantile needs a probability in (0, 1), got {p!r}"
        )
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley step: e is the CDF error, u the Newton step; the quadratic
    # correction makes the step third-order.
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def simultaneous_intervals(
    estimates: Sequence[Tuple[float, float]],
    *,
    confidence: float = 0.95,
) -> List[Tuple[float, float, float]]:
    """Joint Bonferroni normal intervals covering **all** K estimates at once.

    Per-statistic 95% intervals cover each estimate alone; a table of K such
    intervals covers the whole row only at ``~0.95**K``.  Following the
    csranks methodology (Chetverikov et al., arXiv:2401.15205), cross-family
    comparison tables widen every interval to the ``1 - alpha / K``
    (Bonferroni) per-statistic level so the *joint* coverage is at least
    ``confidence`` under any dependence between the K statistics.

    Parameters
    ----------
    estimates : sequence of (mean, std_err)
        Point estimates with their standard errors (``std_err >= 0``; an
        exact statistic passes 0 and gets a degenerate interval).
    confidence : float
        Target joint coverage in ``(0, 1)``.

    Returns
    -------
    list of (mean, low, high)
        One widened interval per input estimate, in order.
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    if not estimates:
        return []
    per_statistic = (1.0 - confidence) / len(estimates)
    z = normal_quantile(1.0 - per_statistic / 2.0)
    out = []
    for mean, std_err in estimates:
        if std_err < 0:
            raise InvalidParameterError(
                f"standard errors must be non-negative, got {std_err!r}"
            )
        margin = z * std_err
        out.append((mean, mean - margin, mean + margin))
    return out


def holm_rejections(p_values: Sequence[float], alpha: float) -> List[bool]:
    """Holm step-down multiple testing: which hypotheses are rejected.

    Sorts the M p-values ascending and rejects while
    ``p_(i) <= alpha / (M - i)`` (0-based), stopping at the first failure.
    Controls the family-wise error rate at ``alpha`` under arbitrary
    dependence -- uniformly more powerful than plain Bonferroni, which is
    why the stepwise rank intervals below use it.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha!r}")
    count = len(p_values)
    rejected = [False] * count
    order = sorted(range(count), key=lambda i: p_values[i])
    for step, index in enumerate(order):
        if p_values[index] <= alpha / (count - step):
            rejected[index] = True
        else:
            break
    return rejected


@dataclass(frozen=True)
class RankInterval:
    """Simultaneous confidence interval for one family's *rank*.

    Attributes
    ----------
    index : int
        Position in the input sequence.
    value : float
        The family's point estimate.
    std_err : float
        Its standard error.
    rank_low, rank_high : int
        1-based bounds: with joint probability at least the requested
        confidence, **every** family's true rank lies inside its interval.
        ``rank_low = 1 + #{significantly better families}`` and
        ``rank_high = K - #{significantly worse families}``.
    """

    index: int
    value: float
    std_err: float
    rank_low: int
    rank_high: int


def rank_intervals(
    estimates: Sequence[Tuple[float, float]],
    *,
    confidence: float = 0.95,
) -> List[RankInterval]:
    """Simultaneous confidence intervals for the **ranks** of K estimates.

    The csranks construction (Chetverikov et al., arXiv:2401.15205; Al
    Mohamad, Goeman & van Zwet, arXiv:1812.05507): test all K(K-1)/2
    pairwise differences ``x_j - x_k`` with two-sided z-tests, control the
    family-wise error rate with Holm's step-down procedure, then bound each
    family's rank by the comparisons that came out *significant*:

    - ``rank_low(j)  = 1 + #{k : k significantly better than j}``
    - ``rank_high(j) = K - #{k : k significantly worse  than j}``

    Any true-rank vector violating some interval would imply a false
    pairwise rejection, so the intervals inherit the FWER guarantee: joint
    coverage >= ``confidence``.  Exact statistics (``std_err = 0``) compare
    deterministically -- distinct exact values always separate.

    Parameters
    ----------
    estimates : sequence of (value, std_err)
        One entry per family, e.g. mean sampled distance with its standard
        error from :func:`moments_interval` moments.
    confidence : float
        Joint coverage target.

    Rank 1 is the smallest value: every ranked statistic (distances,
    disconnection probabilities) is better when smaller.
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    count = len(estimates)
    for value, std_err in estimates:
        if std_err < 0:
            raise InvalidParameterError(
                f"standard errors must be non-negative, got {std_err!r}"
            )
    if count == 0:
        return []
    if count == 1:
        value, std_err = estimates[0]
        return [RankInterval(0, float(value), float(std_err), 1, 1)]

    pairs = [(j, k) for j in range(count) for k in range(j + 1, count)]
    p_values = []
    for j, k in pairs:
        value_j, err_j = estimates[j]
        value_k, err_k = estimates[k]
        spread = math.sqrt(err_j * err_j + err_k * err_k)
        if spread == 0.0:
            p_values.append(0.0 if value_j != value_k else 1.0)
        else:
            z = abs(value_j - value_k) / spread
            p_values.append(2.0 * normal_cdf(-z))
    rejected = holm_rejections(p_values, 1.0 - confidence)

    better_than = [0] * count  # families significantly better than j
    worse_than = [0] * count  # families significantly worse than j
    for (j, k), significant in zip(pairs, rejected):
        if not significant:
            continue
        if estimates[j][0] < estimates[k][0]:
            better_than[k] += 1
            worse_than[j] += 1
        else:
            better_than[j] += 1
            worse_than[k] += 1
    return [
        RankInterval(
            index=j,
            value=float(estimates[j][0]),
            std_err=float(estimates[j][1]),
            rank_low=1 + better_than[j],
            rank_high=count - worse_than[j],
        )
        for j in range(count)
    ]
