"""log Gamma without scipy.

``lgam`` is cephes ``lgam`` (the routine behind ``scipy.special.gammaln``)
ported operation for operation, so it returns the same double as
``gammaln`` on every input.  ``math.lgamma`` is not a substitute: it
differs from cephes in the last bit at some arguments (e.g. 23 and 27),
which would move Poisson posteriors and NB log scores.
"""

from __future__ import annotations

import math

_LOG_PI = 1.14472988584940017414
_LOG_SQRT_2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305

# Stirling-series coefficients (x >= 13)
_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
      7.93650340457716943945E-4, -2.77777777730099687205E-3,
      8.33333333333331927722E-2)
# rational approximation on [2, 3): numerator B, monic denominator C
_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
      -3.31612992738871184744E5, -1.16237097492762307383E6,
      -1.72173700820839662146E6, -8.53555664245765465627E5)
_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
      -2.20528590553854454839E5, -1.13933444367982507207E6,
      -2.53252307177582951285E6, -2.01889141433532773231E6)


def lgam(x: float) -> float:
    """log |Gamma(x)|, bit-identical to ``scipy.special.gammaln(x)``.

    Poles (0 and the negative integers) give inf; non-finite x is
    returned as is."""
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = lgam(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOG_PI - math.log(z) - w
    if x < 13.0:
        # shift the argument into [2, 3), carrying the product in z
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if z < 0.0:
            z = -z
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        num = _B[0]
        for coef in _B[1:]:
            num = num * x + coef
        den = x + _C[0]
        for coef in _C[1:]:
            den = den * x + coef
        return math.log(z) + x * num / den
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _A[0]
    for coef in _A[1:]:
        series = series * p + coef
    return q + series / x
