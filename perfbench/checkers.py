"""Reference laws and checkers, derived from the model and not from the package.

Nothing here imports ``threshold_gms``: the benchmark judges the
program's outputs against these computations.

Laws used (marks with cumulative hazards H_fit, H_thr and gamma =
lim H_thr(H_fit^-1(h)) / h; by Renyi's record theorem the fitness
records sit at the points of a unit-rate Poisson process in h):

* extinction count above the fitness ladder, gamma > 1:
  NegBin(r = 1 / (gamma - 1), p = lambda_ext / (lambda_birth + lambda_ext)),
  mean e_m = (lambda_ext / lambda_birth) / (gamma - 1); the matching mass
  is Gamma(shape r, rate lambda_birth / lambda_ext);
* long-run configuration, gamma < 1: the mirror image with the roles
  swapped; the total is NegBin(1 / (1 - gamma), p_birth), band 0 is
  NegBin(1, p_birth) and its birth mass Exp(lambda_ext / lambda_birth);
* forward count at time t from empty: lambda_birth * integral of
  f_fit(x) (1 - exp(-lambda_ext t S_thr(x))) / (lambda_ext S_thr(x)) dx.

Tests are stringent (p below 1e-6, or five standard errors) so that a
correct program fails them with negligible probability on any seed,
while a shift of one in a count sample of a few thousand is caught.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

P_MIN = 1e-6
Z_MAX = 5.0
MIN_EXPECTED = 5.0  # smallest expected count of a chi-square bin
Z_VERDICT = 3.0  # the acceptance checks' own limit, in standard errors
RTOL = 1e-6  # relative tolerance of closed-form values


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def negbin_pmf(k: np.ndarray, r: float, p: float) -> np.ndarray:
    """P(N = k) = C(k + r - 1, k) (1 - p)^r p^k on k = 0, 1, ..."""
    from scipy.special import gammaln

    k = np.asarray(k, dtype=float)
    return np.exp(gammaln(k + r) - gammaln(r) - gammaln(k + 1.0) + r * math.log1p(-p) + k * math.log(p))


def negbin_mean(r: float, p: float) -> float:
    return r * p / (1.0 - p)


def chi_square_p(counts: Sequence[float], pmf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Pearson chi-square p-value of integer samples against a pmf.

    Bins are built from k = 0 upward, each closed once its expected
    count reaches MIN_EXPECTED; the last bin takes the whole upper tail.
    """
    from scipy.special import chdtrc

    x = np.asarray(counts, dtype=float)
    require(x.size > 0 and np.all(np.isfinite(x)), "count sample is empty or holds sentinels")
    require(np.all(x == np.round(x)) and x.min() >= 0, "count sample is not non-negative integers")
    n = x.size
    k_max = int(x.max())
    top = max(k_max, 64)
    while n * float(pmf(np.array([top]))[0]) > 1e-12:
        top *= 2
    probs = pmf(np.arange(top + 1))
    observed = np.bincount(x.astype(np.int64), minlength=top + 1).astype(float)
    obs_bins, exp_bins = [], []
    acc_o = acc_e = 0.0
    for k in range(top + 1):
        acc_o += observed[k]
        acc_e += n * probs[k]
        if acc_e >= MIN_EXPECTED:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    tail = max(n - sum(exp_bins), 0.0)
    if obs_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += tail
    require(len(exp_bins) >= 2, "too few samples for a chi-square test")
    o = np.asarray(obs_bins)
    e = np.asarray(exp_bins)
    stat = float(((o - e) ** 2 / e).sum())
    return float(chdtrc(len(e) - 1, stat))


def ks_p(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov p-value (asymptotic Kolmogorov law)."""
    from scipy.special import kolmogorov

    x = np.sort(np.asarray(samples, dtype=float))
    require(x.size > 0 and np.all(np.isfinite(x)), "continuous sample is empty or holds sentinels")
    n = x.size
    f = cdf(x)
    d = max(float((np.arange(1, n + 1) / n - f).max()), float((f - np.arange(n) / n).max()))
    sq = math.sqrt(n)
    return float(kolmogorov((sq + 0.12 + 0.11 / sq) * d))


def check_negbin(counts, r: float, p: float, label: str) -> None:
    x = np.asarray(counts, dtype=float)
    mean = negbin_mean(r, p)
    se = math.sqrt(r * p / (1.0 - p) ** 2 / x.size)
    z = abs(float(x.mean()) - mean) / se
    require(z <= Z_MAX, f"{label}: mean {x.mean():.4f} is {z:.1f} se from {mean:.4f}")
    pv = chi_square_p(x, lambda k: negbin_pmf(k, r, p))
    require(pv > P_MIN, f"{label}: chi-square p {pv:.2e} against NegBin(r={r:g}, p={p:g})")


def gamma_cdf(x, shape: float, rate: float) -> np.ndarray:
    from scipy.special import gammainc

    return gammainc(shape, rate * np.maximum(np.asarray(x, dtype=float), 0.0))


def check_gamma(samples, shape: float, rate: float, label: str) -> None:
    """Gamma(shape, rate); shape 1 is the exponential law."""
    pv = ks_p(samples, lambda x: gamma_cdf(x, shape, rate))
    require(pv > P_MIN, f"{label}: KS p {pv:.2e} against Gamma({shape:g}, {rate:g})")


def check_verdict(name: str, passed: bool, p_ref: float) -> None:
    """A PASS/FAIL verdict at alpha = 0.01 against the reference p-value.

    The program's binning or p-value method may differ slightly from the
    reference, so only a verdict on the wrong side of a wide margin is
    an error.
    """
    if passed:
        require(p_ref > 1e-4, f"{name}: PASS although the reference p is {p_ref:.2e}")
    else:
        require(p_ref < 0.05, f"{name}: FAIL although the reference p is {p_ref:.3f}")


def check_z_verdict(name: str, passed: bool, z_ref: float) -> None:
    """A verdict of the form |deviation| <= Z_VERDICT standard errors."""
    if passed:
        require(z_ref <= Z_VERDICT + 0.05, f"{name}: PASS although the reference deviation is {z_ref:.2f} se")
    else:
        require(z_ref >= Z_VERDICT - 0.05, f"{name}: FAIL although the reference deviation is {z_ref:.2f} se")


def check_mean(samples, target: float, label: str) -> None:
    x = np.asarray(samples, dtype=float)
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    z = abs(float(x.mean()) - target) / se
    require(z <= Z_MAX, f"{label}: mean {x.mean():.4f} is {z:.1f} se from {target:.4f}")


def forward_mean_exponential(a_fit: float, a_thr: float, lam_b: float, lam_e: float,
                             t: float) -> float:
    """Mean population at time t from an empty start, exponential marks.

    Integrates over the fitness level in v = exp(-a_fit x), where the
    integrand is smooth on [0, 1], by Gauss-Legendre quadrature on
    panels that are refined near v = 0.
    """
    gamma = a_thr / a_fit

    def integrand(v: np.ndarray) -> np.ndarray:
        s_thr = v ** gamma
        rate = lam_e * t * s_thr
        # (1 - exp(-rate)) / s_thr, with the small-rate limit lam_e * t.
        return np.where(rate > 1e-12, -np.expm1(-rate) / np.where(s_thr > 0, s_thr, 1.0), lam_e * t)

    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 200)))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float((weights * integrand(v)).sum())
    return lam_b / lam_e * total


def recount_from_trace(kinds: Sequence[str], marks: Sequence[float]) -> np.ndarray:
    """Population after every event, from the event columns alone.

    A species born at event j dies at the first later extinction whose
    threshold is strictly above its fitness.  Scanning backward, the
    thresholds still to come are kept as a stack of suffix maxima, so
    each birth finds its killer by binary search; a fitness equal to
    the threshold survives.  Returns the count after each event.
    """
    n = len(kinds)
    death = np.full(n, n, dtype=np.int64)
    # Stack of (threshold, index), earliest extinction on top: the
    # records of the suffix read forward, so thresholds strictly
    # increase from the top of the stack to its bottom.
    stack_thr: list[float] = []
    stack_idx: list[int] = []
    for i in range(n - 1, -1, -1):
        if kinds[i] == "extinction":
            y = marks[i]
            while stack_thr and stack_thr[-1] <= y:
                stack_thr.pop()
                stack_idx.pop()
            stack_thr.append(y)
            stack_idx.append(i)
        else:
            x = marks[i]
            # First extinction after i with threshold > x: the entries
            # above x form a prefix of the list; take its last one.
            lo, hi = 0, len(stack_thr)
            while lo < hi:
                mid = (lo + hi) // 2
                if stack_thr[mid] > x:
                    lo = mid + 1
                else:
                    hi = mid
            if lo > 0:
                death[i] = stack_idx[lo - 1]
    delta = np.zeros(n + 1, dtype=np.int64)
    births = np.array([k == "birth" for k in kinds], dtype=bool)
    idx = np.nonzero(births)[0]
    np.add.at(delta, idx, 1)
    np.add.at(delta, death[idx], -1)
    return np.cumsum(delta[:n])


def last_empty_from_counts(times: Sequence[float], counts: np.ndarray, horizon: float) -> float:
    """Supremum of the empty times of a path that starts empty."""
    if len(counts) == 0 or counts[-1] == 0:
        return float(horizon)
    zeros = np.nonzero(np.asarray(counts) == 0)[0]
    if zeros.size == 0:
        return float(times[0])
    return float(times[int(zeros[-1]) + 1])


def exponential_verdicts(a_fit: float, a_thr: float) -> tuple[str, str]:
    """(recurrence, limit_count) from the tail-weight ordering."""
    if a_thr > a_fit:
        return "Transient", "Infinite"
    if a_fit > a_thr:
        return "Recurrent", "Finite"
    return "Recurrent", "Infinite"


def expected_counts(a_fit: float, a_thr: float, lam_b: float, lam_e: float):
    """(e_m, e_n): mean extinction count above the fitness ladder and its mirror."""
    e_m = lam_e / lam_b * a_fit / (a_thr - a_fit) if a_thr > a_fit else math.inf
    e_n = lam_b / lam_e * a_thr / (a_fit - a_thr) if a_fit > a_thr else math.inf
    return e_m, e_n


def close(got: float, want: float) -> bool:
    if math.isinf(want):
        return math.isinf(got)
    return abs(got - want) <= RTOL * abs(want)


def optional_float(cell: str) -> Optional[float]:
    if cell == "":
        return None
    return math.inf if cell == "inf" else float(cell)
