# Survival function of the two-sided one-sample Kolmogorov-Smirnov
# statistic D_n, for sample sizes n > 140.
#
# Ported from scipy/stats/_ksstats.py (SciPy 1.17.1): the survival-function
# path of _kolmogn for n > 140 with _kolmogn_DMTW, _kolmogn_PelzGood and
# _log_nfactorial_div_n_pow_n, so that kolmogorov_sf(n, d) equals
# scipy.stats.kstwo.sf(d, n) bit for bit without importing scipy.stats.
# The n <= 140 branches and the Pomeranz recursion are left out.
#
# Algorithm selection: Simard, R., L'Ecuyer, P. (2011), "Computing the
# Two-Sided Kolmogorov-Smirnov Distribution", Journal of Statistical
# Software 39(11), 1-18.  Durbin matrix: Durbin (1968); Marsaglia, Tsang,
# Wang (2003), Journal of Statistical Software 8(18).  Small-d expansion:
# Pelz, Good (1976), JRSS B 38(2), 152-156.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Exact two-sided Kolmogorov-Smirnov p-values for n > 140 (a port of scipy's kstwo.sf).

Every operation keeps scipy's order and numpy types, the extended
precision of the Durbin branch included, since bit-identical p-values
are the point of the port.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

# Smallest sample size of the kept branches.
MIN_N = 141


def _log_nfactorial_div_n_pow_n(n):
    """log(n! / n**n) by Stirling, with n log n removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_dmtw(n, d):
    """P(D_n <= d) by the Durbin matrix, in the Marsaglia-Tsang-Wang scaling.

    With d = (k - h)/n, the answer is the (k, k) entry of (n!/n^n) H^n for
    an m x m matrix H, m = 2k - 1, rescaled by 2^128 as it grows or shrinks.
    Called only with 1 < n d and d < 1/2.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v is the first column (and reversed last row) of H, w[j] = 1/j!.
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # Multiply by n!/n^n; the first rescale turns p into a long double.
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogn_pelz_good(n, x):
    """Pelz-Good approximation to P(D_n <= x), 1/n < x < 1/2.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x sqrt(n), each term rewritten by the Jacobi theta
    functional equation into a form that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:
        return np.clip(0.0, 0.0, 1.0)

    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd i.
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The K2 and K3 terms summed over all integers k.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided statistic of n > 140 samples.

    Equals scipy.stats.kstwo.sf(d, n).  The branches, by t = n d:
    t <= 1 and t >= n - 1 are Ruben-Gambino's closed forms; d >= 0.5
    and 2.2 <= n d^2 < 370 are 2 smirnov(n, d) (the two one-sided tails
    cannot both be crossed); n d^2 >= 370 is 0; below that, 1 - CDF with
    the CDF from the Durbin matrix when n <= 100 000 and n d^1.5 <= 1.4,
    else from Pelz-Good.
    """
    if n < MIN_N:
        raise ValueError(f"the exact Kolmogorov survival function is ported for n >= {MIN_N}, got {n}")
    # kstwo's support is (0.5/n, 1); the 0-d array keeps scipy's numpy types.
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    x = np.asarray(d, dtype=np.float64)
    t = n * x
    if t <= 1.0:
        if t <= 0.5:
            return 1.0
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return float(np.clip(1.0 - prob, 0.0, 1.0))
    if t >= n - 1:
        prob = 2 * (1.0 - x)**n
        return float(np.clip(prob, 0.0, 1.0))
    if x >= 0.5:
        prob = 2 * special.smirnov(n, x)
        return float(np.clip(prob, 0.0, 1.0))
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        prob = 2 * special.smirnov(n, x)
        return float(np.clip(prob, 0.0, 1.0))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return float(np.clip(1.0 - cdfprob, 0.0, 1.0))
