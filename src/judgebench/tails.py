"""Student t and F tail probabilities, in numpy.

Every p-value of the report comes from here.  ``t_test_p_value`` is the one
two-sided t test: the HLN test is its case with null 0 and SE 1, and the
persistence cells and the recovery experiment's interval check test the FE
slope.  The Wald tests read ``f_sf``.  All three take arrays (or scalars),
broadcast them, and work element by element, so a batched call gives the
same bits as one call per element.

Both tails reduce to one regularized incomplete beta, I_x(a, 1/2) with
a = df/2 and x = 1/(1 + w): for the t tail w = t²/df, and for the F tail
w = q f/df, where an F tail with q numerator degrees of freedom adds q//2
positive terms of the recurrence I_x(a, b + 1) = I_x(a, b) + x^a y^b / (b B(a, b)).
I_x(a, 1/2) follows DiDonato & Morris (1992, ACM TOMS 18(3), Algorithm 708)
for b = 1/2: the power series BPSER where x <= 0.7, its complement where
a y is small, and otherwise the asymptotic expansion BGRAT, preceded by 20
positive terms of the a-recurrence (BUP) when a < 15.  The large power
x^a = exp(-a log1p(w)) carries the tail, so log1p(w) and its product with a
are formed in double-double arithmetic, and Γ(a + 1/2)/Γ(a) comes from its
asymptotic series at a + n >= 20 and the exact recurrence down to a, never
from a difference of log-gammas.  Against mpmath the relative error is below
1e-13 for df up to 1e4 and below 1e-12 for df up to 1e6, down to p = 1e-300.

Edge rules: NaN for df <= 0, a non-finite df, a NaN statistic, a negative
F statistic, and an F numerator df that is not a positive integer; a zero
statistic gives t_sf = 0.5 and f_sf = 1 exactly; an infinite one gives 0.
"""
from __future__ import annotations

import math

import numpy as np

_EPS = 2.0**-53
_SQRT_PI = math.sqrt(math.pi)
_LN2_HI = 6.93147180369123816490e-01  # ln 2 to 32 bits, so k * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10
_SPLIT = 2.0**27 + 1.0
_SHIFT = 20  # BGRAT needs a >= 15; smaller a are raised by this many terms of the recurrence


def _two_sum(a, b):
    """a + b as an unevaluated sum hi + lo, exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """a * b as an unevaluated sum hi + lo, exactly (Dekker's product)."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _log1p_ratio(u, s, d):
    """log(1 + u s / d) as a double-double (hi, lo), for u, s >= 0 and d > 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, p_lo = _two_prod(u, s)
        w = p / d
        r, r_lo = _two_prod(w, d)
        w_lo = ((p - r) - r_lo + p_lo) / d
        v, v_lo = _two_sum(1.0, w)
        v_lo = v_lo + w_lo
        # v = m 2^k with m in [1/sqrt(2), sqrt(2)); log m = 2 atanh(s), s = (m-1)/(m+1).
        m, k = np.frexp(v)
        low = m < math.sqrt(0.5)
        m = np.where(low, 2.0 * m, m)
        k = np.where(low, k - 1, k)
        m_lo = np.ldexp(v_lo, -k)
        num, num_lo = _two_sum(m - 1.0, m_lo)
        den, den_lo = _two_sum(m, 1.0)
        s_hi = num / den
        q, q_lo = _two_prod(s_hi, den)
        s_lo = (((num - q) - q_lo) + num_lo - s_hi * (den_lo + m_lo)) / den
        s2 = s_hi * s_hi
        series = 1.0 / 25.0
        for j in range(11, 0, -1):
            series = 1.0 / (2 * j + 1) + s2 * series
        odd, odd_lo = _two_sum(2.0 * s_hi, 2.0 * s_hi * s2 * series)
        hi, hi_lo = _two_sum(k * _LN2_HI, odd)
        hi, lo = _two_sum(hi, hi_lo + odd_lo + 2.0 * s_lo + k * _LN2_LO)
    # u s overflows only for statistics beyond 1e150 (or infinite ones); there a double logarithm is ample.
    huge = ~np.isfinite(hi)
    if huge.any():
        with np.errstate(divide="ignore"):
            hi = np.where(huge, np.log(u) + np.log(s) - np.log(d), hi)
        lo = np.where(huge, 0.0, lo)
    return hi, np.where(np.isfinite(hi), lo, 0.0)


def _exp_neg(c, log_hi, log_lo):
    """exp(-c (log_hi + log_lo)), with the product formed in double-double."""
    with np.errstate(invalid="ignore", over="ignore"):
        e, e_lo = _two_prod(c, log_hi)
        e_lo = np.where(np.isfinite(e), e_lo + c * log_lo, 0.0)
    return np.exp(-e) * (1.0 - e_lo)


# ln(Γ(a + 1/2)/Γ(a)) - ln(a)/2 ~ sum over even k of B_k (2^(1-k) - 2) / (k (k-1) a^(k-1)), for k = 2, 4, ..., 14:
# -1/8, 1/192, -1/640, 17/14336, -31/18432, 691/180224 and -5461/425984, each the nearest double.
_RATIO_SERIES = [-0.125, 0.005208333333333333, -0.0015625, 0.0011858258928571428, -0.001681857638888889,
                 0.0038341175426136365, -0.012819730318509616]


def _gamma_half_ratio(a):
    """Γ(a + 1/2)/Γ(a) for a > 0: the series at a + n >= 20, then R(a) = R(a+1) a/(a + 1/2)."""
    n = np.ceil(np.maximum(20.0 - a, 0.0))
    s = a + n
    inv2 = 1.0 / (s * s)
    series = 0.0
    for c in reversed(_RATIO_SERIES):
        series = c + inv2 * series
    ratio = np.sqrt(s) * np.exp(series / s)
    for i in range(int(n.max(initial=0.0))):
        ratio = np.where(n > i, ratio * ((a + i) / (a + i + 0.5)), ratio)
    return ratio


def _bpser(a, x, log_hi, log_lo):
    """I_x(a, 1/2) by its power series; x <= 0.7."""
    total = np.zeros_like(a)
    term = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    n = 0
    while active.any():
        n += 1
        term = term * (1.0 - 0.5 / n) * x
        step = term / (a + n)
        total = np.where(active, total + step, total)
        active &= step > _EPS / a
    return _exp_neg(a, log_hi, log_lo) * _gamma_half_ratio(a) / (a * _SQRT_PI) * (1.0 + a * total)


def _bpser_complement(a, y):
    """1 - I_y(1/2, a), the power series of the complement; a <= 1 or a y <= 0.49."""
    total = np.zeros_like(a)
    term = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    n = 0
    while active.any():
        n += 1
        term = term * (1.0 - a / n) * y
        step = term / (n + 0.5)
        total = np.where(active, total + step, total)
        active &= np.abs(step) > 2.0 * _EPS
    return 1.0 - 2.0 * np.sqrt(y) * _gamma_half_ratio(a) / _SQRT_PI * (1.0 + 0.5 * total)


def _bup(a, x, y, log_hi, log_lo):
    """I_x(a, 1/2) - I_x(a + _SHIFT, 1/2): _SHIFT positive terms of the recurrence in a."""
    term = _exp_neg(a, log_hi, log_lo) * np.sqrt(y) * _gamma_half_ratio(a) / (a * _SQRT_PI)
    total = term
    for i in range(1, _SHIFT):
        term = term * x * (a + i - 0.5) / (a + i)
        total = total + term
    return total


def _scaled_erfc(z):
    """sqrt(pi) e^z erfc(sqrt z) / sqrt z = e^z Γ(1/2, z) / sqrt z, for z > 0."""
    out = np.empty_like(z)
    small = z < 1.5
    if small.any():  # sqrt(pi) e^z / sqrt z - 2 sum_n z^n / (3/2)_n
        zs = z[small]
        total = np.ones_like(zs)
        term = np.ones_like(zs)
        active = np.ones(zs.shape, dtype=bool)
        n = 0
        while active.any():
            n += 1
            term = term * zs / (n + 0.5)
            total = np.where(active, total + term, total)
            active &= term > _EPS * total
        out[small] = _SQRT_PI * np.exp(zs) / np.sqrt(zs) - 2.0 * total
    if not small.all():  # Legendre's continued fraction, by the modified Lentz method
        zl = z[~small]
        b = zl + 0.5
        c = np.full_like(zl, 1e300)
        d = 1.0 / b
        h = d
        active = np.ones(zl.shape, dtype=bool)
        i = 0
        while active.any():
            i += 1
            an = -i * (i - 0.5)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            h = np.where(active, h * delta, h)
            active &= np.abs(delta - 1.0) > _EPS
        out[~small] = h
    return out


def _bgrat_coefficients(b: float, count: int) -> list[float]:
    """The d_n of the BGRAT expansion, which depend on b alone."""
    c: list[float] = []
    d: list[float] = []
    cn = 1.0
    for n in range(1, count + 1):
        cn /= (2 * n) * (2 * n + 1)
        c.append(cn)
        s = sum((b * i - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append((b - 1.0) * cn + s / n)
    return d


_BGRAT_D = _bgrat_coefficients(0.5, 30)


def _bgrat(a, log_hi, log_lo):
    """I_x(a, 1/2) by the asymptotic expansion in incomplete gamma functions; a >= 15."""
    nu = a - 0.25
    z = nu * log_hi
    # e^-z z^(1/2) / Γ(1/2) * Γ(a + 1/2) / (Γ(a) nu^(1/2)), with e^-z = x^nu.
    u = _exp_neg(nu, log_hi, log_lo) * np.sqrt(z / nu) * _gamma_half_ratio(a) / _SQRT_PI
    j = _scaled_erfc(z)
    total = j
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log_hi * log_hi
    t = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    for n, dn in enumerate(_BGRAT_D):
        bp2n = 0.5 + 2 * n
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        t = t * t2
        step = dn * j
        total = np.where(active, total + step, total)
        active &= np.abs(step) > _EPS * total
        if not active.any():
            break
    return u * total


def _ibeta_half(a, log_hi, log_lo):
    """I_x(a, 1/2) for x = exp(-(log_hi + log_lo)), elementwise over 1-d arrays."""
    x = np.exp(-log_hi)
    y = -np.expm1(-log_hi)
    out = np.empty_like(a)
    direct = x <= 0.7
    complement = ~direct & ((a <= 1.0) | ((y < 0.1) & (a * y <= 0.49)))
    expansion = ~(direct | complement)
    if direct.any():
        out[direct] = _bpser(a[direct], x[direct], log_hi[direct], log_lo[direct])
    if complement.any():
        out[complement] = _bpser_complement(a[complement], y[complement])
    if expansion.any():
        ae, xe, ye = a[expansion], x[expansion], y[expansion]
        he, le = log_hi[expansion], log_lo[expansion]
        shift = ae < 15.0
        start = np.zeros_like(ae)
        if shift.any():
            start[shift] = _bup(ae[shift], xe[shift], ye[shift], he[shift], le[shift])
        out[expansion] = start + _bgrat(np.where(shift, ae + _SHIFT, ae), he, le)
    return out


def _flat(*arrays):
    """Broadcast to one shape and return that shape and contiguous 1-d float copies."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in arrays))
    return arrays[0].shape, [np.ascontiguousarray(x).ravel() for x in arrays]


def _shaped(values, shape):
    """``values`` in ``shape``; a 0-d result as a numpy scalar."""
    return values.reshape(shape)[()]


def t_sf(t, df):
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    shape, (t, df) = _flat(t, df)
    valid = (df > 0) & np.isfinite(df) & ~np.isnan(t)
    out = np.full(t.shape, np.nan)
    if valid.any():
        tv, dv = t[valid], df[valid]
        size = np.abs(tv)
        log_hi, log_lo = _log1p_ratio(size, size, dv)
        half = 0.5 * _ibeta_half(0.5 * dv, log_hi, log_lo)
        out[valid] = np.where(tv > 0, half, 1.0 - half)
    return _shaped(out, shape)


def f_sf(f, dfn, dfd):
    """P(F > f) for the F distribution with ``dfn`` (a positive integer) and ``dfd`` degrees of freedom."""
    shape, (f, q, d) = _flat(f, dfn, dfd)
    valid = (d > 0) & np.isfinite(d) & (q >= 1) & (q == np.floor(q)) & np.isfinite(q) & (f >= 0)
    out = np.full(f.shape, np.nan)
    if valid.any():
        f, q, d = f[valid], q[valid], d[valid]
        a = 0.5 * d
        log_hi, log_lo = _log1p_ratio(q, f, d)
        y = -np.expm1(-log_hi)
        odd = q % 2 == 1
        total = np.zeros_like(f)
        if odd.any():
            total[odd] = _ibeta_half(a[odd], log_hi[odd], log_lo[odd])
        # I_x(a, q/2) - I_x(a, 1/2 or 0) = sum over j of x^a y^(j+o) Γ(a+j+o) / (Γ(a) Γ(j+o+1)), o = 1/2 or 0.
        offset = np.where(odd, 0.5, 0.0)
        term = _exp_neg(a, log_hi, log_lo) * np.where(odd, 2.0 * np.sqrt(y) * _gamma_half_ratio(a) / _SQRT_PI, 1.0)
        count = np.floor(0.5 * q)
        for j in range(int(count.max())):
            total = np.where(j < count, total + term, total)
            term = term * y * (a + j + offset) / (j + 1.0 + offset)
        out[valid] = total
    return _shaped(out, shape)


def t_test_p_value(estimate, null, se, df):
    """The two-sided p-value of the t test of ``estimate`` = ``null`` with ``df`` degrees of freedom.

    A zero SE leaves no sampling variation to test against: p = 1 where the estimate equals the null, else 0.
    """
    estimate, null, se = (np.asarray(x, dtype=float) for x in (estimate, null, se))
    tested = se > 0
    p = 2.0 * t_sf(np.abs(estimate - null) / np.where(tested, se, 1.0), df)
    return np.where(tested, p, np.where(estimate == null, 1.0, 0.0))[()]
