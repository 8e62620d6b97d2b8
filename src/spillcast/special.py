"""Special functions without scipy.

``lgam``, ``ndtr`` and ``kolmogorov`` are the cephes routines behind
``scipy.special.gammaln``, ``ndtr`` and ``kolmogorov``, ported operation
for operation, so each returns the same double as scipy on every input.
``math.lgamma`` and ``math.erfc`` are not substitutes: they differ from
cephes in the last bit at some arguments (``lgamma`` at 23 and 27), which
would move Poisson posteriors, NB log scores and the trend outputs.

``t_tail`` is the two-sided Student t tail.  scipy's ``stdtr`` runs
Boost's ``ibeta``, which is not portable bit for bit; ``t_tail`` is
within 1e-13 of ``2 * stdtr(dof, -abs(t))``, relative, for dof 3-200 and
every t whose tail is at least 1e-300.
"""

from __future__ import annotations

import math
import operator

_LOG_PI = 1.14472988584940017414
_LOG_SQRT_2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440
_EPS = 2.0 ** -52

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

# erfc on [1, 8): numerator P, monic denominator Q
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc on [8, inf): numerator R, monic denominator S
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
# erf on [0, 1]: x T(x^2) / U(x^2), U monic
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)

# the Kolmogorov survival function: theta series up to here, then the
# alternating series; exp underflows below _MIN_EXPABLE
_KOLMOG_CUTOVER = 0.82
_MIN_EXPABLE = -708 - 40


def _polevl(x: float, coefs) -> float:
    """cephes ``polevl``: the polynomial with ``coefs`` (highest degree
    first) at x, in Horner order."""
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


def _p1evl(x: float, coefs) -> float:
    """cephes ``p1evl``: ``_polevl`` with a leading coefficient of 1 that
    ``coefs`` leaves out."""
    ans = x + coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


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
        return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)
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
    return q + _polevl(p, _A) / x


def erf(x: float) -> float:
    """The error function, bit-identical to ``scipy.special.erf(x)``."""
    if math.isnan(x):
        return x
    if x < 0.0:
        return -erf(-x)
    if abs(x) > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def erfc(a: float) -> float:
    """1 - erf(a), bit-identical to ``scipy.special.erfc(a)``."""
    if math.isnan(a):
        return a
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _P)
        q = _p1evl(x, _Q)
    else:
        p = _polevl(x, _R)
        q = _p1evl(x, _S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def ndtr(a: float) -> float:
    """The standard normal CDF, bit-identical to
    ``scipy.special.ndtr(a)``."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    if x > 0:
        y = 1.0 - y
    return y


def kolmogorov(x: float) -> float:
    """The Kolmogorov distribution's survival function P(K > x),
    bit-identical to ``scipy.special.kolmogorov(x)``."""
    if math.isnan(x):
        return x
    if x <= 0 or x <= math.pi / math.sqrt(-_MIN_EXPABLE * 8):
        return 1.0
    if x <= _KOLMOG_CUTOVER:
        # u = exp(-pi^2 / (8 x^2)), w = sqrt(2 pi) / x:
        # P(K <= x) = w u (1 + u^8 + u^24 + u^48 + ...)
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            cdf = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            cdf = 1 + u8 ** 3
            cdf = 1 + u8 * u8 * cdf
            cdf = 1 + u8 * cdf
            cdf = w * u * cdf
        sf = 1 - cdf
    else:
        # v = exp(-2 x^2): P(K > x) = 2 (v - v^4 + v^9 - v^16 + ...)
        v = math.exp(-2 * x * x)
        vsq = v * v
        v3 = v ** 3
        sf = 1 - v3 * v3 * v
        sf = 1 - v3 * vsq * sf
        sf = 1 - v3 * sf
        sf = 2 * v * sf
    return min(max(sf, 0.0), 1.0)


def t_tail(dof: int, t: float) -> float:
    """Two-sided Student t tail P(|T| >= |t|) with ``dof`` degrees of
    freedom: the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t^2).

    The tail is summed directly, by the continued fraction where it
    converges fast and as 1 - I_{1-x}(1/2, dof/2) by that function's
    positive power series near t = 0, so that no small tail is left
    from 1 - (nearly 1).  As in Boost, which scipy's ``stdtr`` runs,
    1 - x = t^2 / (dof + t^2) is formed directly when t^2 < dof / 2,
    and x otherwise."""
    dof = operator.index(dof)   # a float dof raises TypeError
    if dof < 1:
        raise ValueError(f"dof = {dof} < 1")
    a = dof / 2
    t2 = t * t
    if dof > 2 * t2:
        y = t2 / (dof + t2)
        x = 1.0 - y
        xa = math.exp(a * math.log1p(-y))
    else:
        x = dof / (dof + t2)
        y = 1.0 - x
        xa = x ** a
    # a B(a, 1/2) = (dof/(dof-1)) ((dof-2)/(dof-3)) ..., down to 2/1 for
    # even dof and to (3/2) (pi/2) for odd dof
    norm = math.pi / 2 if dof % 2 else 1.0
    for m in range(dof, 1 + dof % 2, -2):
        norm *= m / (m - 1)
    front = xa * math.sqrt(y) / norm
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x)
    term = total = 1.0
    n = 0
    while term > _EPS * total:
        term *= y * (a + 0.5 + n) / (1.5 + n)
        total += term
        n += 1
    return 1.0 - 2.0 * a * front * total


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b)))
    by the modified Lentz method; it converges fast for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at "
                          f"a={a}, b={b}, x={x}")
