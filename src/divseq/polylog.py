"""Integer-order polylogarithm Li_k(z) for real z < 1, elementwise.

Every entry point takes a scalar, which gives a float, or an array, which
gives an array of the same shape. The kernel works on the pair z and
w = 1 - z and takes each from the form the caller holds exactly:
``polylog`` takes either. The pl sequence passes w = q/p, so no digits
are lost to forming 1 - q/p as q/p -> 0.

- Orders 0 and 1 use their closed forms z/w and -log w (-log1p(-z) for
  |z| <= 1/2).
- For 1/2 <= w <= 2, that is -1 <= z <= 1/2, the Bernoulli-transformed
  series in u = -log(1 - z) = -log1p(-z) (Vollinga and Weinzierl,
  Comput. Phys. Commun. 167, 2005),

      Li_k(z) = Sum_{n>=1} c_n u^n,
      c_n = Sum_{1<=j<=n} (-1)^(n-j) j! S(n, j) / (n! j^k),

  with S the Stirling numbers of the second kind. It converges for
  |u| < 2 pi, and here |u| <= log 2. The j = 1 terms sum to 1 - e^-u = z,
  so it is summed as z + Sum_{n>=2} d_n u^n, d_n the c_n without them: z
  is exact there (by Sterbenz's lemma where the caller gave w), and at a
  large order, where d_n ~ 2^(n-k), the result is z itself.
- For 0 < w < 1/2, that is 1/2 < z < 1, the expansion in mu = log z =
  log1p(-w), which converges for |mu| < 2 pi,

      Li_k(e^mu) = Sum_{j != k-1} zeta(k-j) mu^j / j!
                   + mu^(k-1) / (k-1)! * (H_{k-1} - log(-mu)),

  with H the harmonic numbers. Its log(-mu) term carries every digit of w
  as w -> 0.
- For w > 2, that is z < -1, inversion, with L = log(-z) = log(w - 1),

      Li_k(z) = (-1)^(k+1) Li_k(1/z) - L^k / k!
                - 2 Sum_{1 <= r <= k/2} eta(2r) L^(k-2r) / (k-2r)!,

  takes 1/z, whose 1 - 1/z lies in (1, 2), to the u-series. The
  polynomial in L is -(2 pi i)^k / k! B_k(1/2 + L / (2 pi i)), B_k the
  Bernoulli polynomial, and eta(s) = (1 - 2^(1-s)) zeta(s).

So no route integrates, every coordinate takes one series of at most 20
terms (the mu expansion k terms past k = 20), and the seams lie at w = 1/2
and w = 2. A call partitions its coordinates once between the two series
and builds one table of powers, u^j beside mu^j; each route contracts its
own columns against all orders' coefficients at once. Every coefficient
is an exact rational formed in Python integers and rounded once, and none
imports fractions. The u-series' are built once per order in O(20^2)
steps for any k. The mu expansion's are built once per order, and only
for an order some argument with w < 1/2 takes; inversion's likewise for
w > 2, and they take eta at even s alone. Both cost O(k^2) big-integer
steps, a few ms at k = 400: zeta at nonpositive integers from Bernoulli
numbers, and eta, hence zeta, at s >= 2 from Borwein's alternating series
("An efficient algorithm for the Riemann zeta function", 2000). See
Lewin, *Polylogarithms and Associated Functions* (1981), for the
expansions.

The tests check every route against a quadrature of the Bose-Einstein
representation, which shares nothing with them, and every coefficient
against a build in exact fractions (tests/polylog_oracles.py).

The module contract is 1e-12 relative accuracy.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .distributions import _caller_form
from .errors import DomainError, ToleranceError, require_floats, require_index, require_orders

# Terms per block of the power series. At |z| <= 1/2 the tail past one block
# is under 2^-64 of the sum, so one block is the whole series.
_SERIES_WIDTH = 64
_SERIES_MAX_TERMS = 10_000
_EPS = 2.0**-53
# Terms of the u-series, and of the mu expansion, or k if more. At |u| and
# |mu| <= log 2 the first term left out is below 1e-19 of the sum for every
# order.
_MU_TERMS = 20
# Powers j^-k below 2^-_U_BITS are left out of the u-series' coefficients,
# which happens only past k = 44 (20^44 < 2^192). What is left out moves
# Li_k by under 2^-170 of its value: each term is under 2^-192 j! S(n, j)/n!,
# Sum_j j! S(n, j) / n! < 1101 for n <= 20, and |Li_k| > |u| / 3 there.
_U_BITS = 192
# Borwein's series for eta(s) with n terms errs by under 3 / (3 + sqrt 8)^n
# for real s >= 2: 1.3e-18 at n = 24.
_ETA_TERMS = 24
# Cells of one table of powers. At 20 powers a table holds up to 1638
# coordinates, so a 1000-point call builds and contracts one table, not two
# of 2^14 cells: that alone took sl(3) on 1000 points about 4% less time
# (2 cores, Python 3.11), and a 256 KiB table faults no fresh pages a call.
_TABLE_CELLS = 1 << 15


def _arguments(z, w) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Flat z and w = 1 - z, each formed from the one the caller gave."""
    if (z is None) == (w is None):
        raise DomainError("give the argument as z or as w = 1 - z, not both")
    given = require_floats(z if w is None else w, "polylog argument")
    flat = given.ravel()
    if w is None:
        bad = ~(np.isfinite(flat) & (flat < 1.0))
        what = "argument must be a finite real below 1"
    else:
        bad = ~(np.isfinite(flat) & (flat > 0.0))
        what = "w = 1 - z must be finite and positive"
    if bad.any():
        raise DomainError(f"{what}, got {float(flat[bad][0])!r}")
    if w is None:
        return flat, 1.0 - flat, given.shape
    return 1.0 - flat, flat, given.shape


def _by_order(rows, k, shape: tuple):
    """Rows, one per order (an array or a list of them), in the caller's
    form: the one row alone for one order k."""
    if isinstance(k, tuple):
        rows = np.asarray(rows)
        return rows.reshape(rows.shape[:1] + shape)
    return _caller_form(rows[0], shape)


def _power_table(head: np.ndarray, x: np.ndarray, width: int) -> np.ndarray:
    """table[width - 1 - j, i] = head_i x_i^j for j < width, by doubling. A
    lone coordinate gets a zero column beside it, so that every contraction
    of a table runs one loop order, whatever its size."""
    if x.size < 2:
        head, x = (np.append(a, np.zeros(2 - x.size)) for a in (head, x))
    table, power = np.empty((width, x.size)), x.copy()
    table[-1] = head
    done = 1
    while done < width:
        n = min(done, width - done)
        np.multiply(table[-n:], power, out=table[width - done - n : width - done])
        power *= power
        done *= 2
    return table


def _power_sums(head: np.ndarray, x: np.ndarray, routes) -> tuple[list, np.ndarray]:
    """Sum_j c_j head x^j, and the top power head x^(width - 1).

    routes are (weights, count) pairs that take the coordinates in turn:
    each route's rows of coefficients c (highest power first) are
    contracted on its own count columns, one result row per row of c; a
    route of no columns needs no weights. The routes share one table of
    powers, side by side, as wide as the widest weights. A table has at
    most _TABLE_CELLS cells, which bounds the memory a large support takes;
    a contraction adds the terms smallest first. Each coordinate's sums
    are its own: they do not depend on the columns beside it.
    """
    width = max((c.shape[1] for c, count in routes if count), default=1)
    sums, spans, first = [], [], 0
    for c, count in routes:
        sums.append(np.empty((len(c) if count else 0, count)))
        spans.append((first, first + count))
        first += count
    top = np.empty(x.size)
    step = max(1, _TABLE_CELLS // width)
    for lo in range(0, x.size, step):
        hi = min(lo + step, x.size)
        table = _power_table(head[lo:hi], x[lo:hi], width)
        for (c, _), out, (first, last) in zip(routes, sums, spans):
            a, b = max(first, lo), min(last, hi)  # the route's part of the chunk
            if a < b:
                part = table[width - c.shape[1] :, a - lo : b - lo]
                out[:, a - first : b - first] = np.einsum("ji,oj->oi", part, c)
        top[lo:hi] = table[0, : hi - lo]
    return sums, top


def _series(orders: tuple[int, ...], z: np.ndarray, linear: bool = True) -> np.ndarray:
    """Sum_{j>=1} z^j / j^k for each k in orders, one row each; with
    linear=False Sum_{j>=2} = Li_k(z) - z, which keeps the digits of the
    difference for small z. A coordinate stops after the first block of
    terms whose tail bound |last term| |z| / (1 - |z|) is within 2^-53 of
    every order's sum: for every |z| <= 1/2, the first."""
    out = np.zeros((len(orders), z.size))
    pending, head, first = np.arange(z.size), z, 1
    while pending.size:
        if first > _SERIES_MAX_TERMS:
            raise ToleranceError(f"series for Li_{max(orders)}({float(z[pending[0]])}) "
                                 f"still moving after {_SERIES_MAX_TERMS} terms")
        j = np.arange(first + _SERIES_WIDTH - 1, first - 1, -1.0)
        weights = j ** -np.array(orders)[:, None]
        if first == 1 and not linear:
            weights[:, -1] = 0.0
        x = z[pending]
        (sums,), last = _power_sums(head, x, [(weights, x.size)])
        out[:, pending] = sums = sums + out[:, pending]
        head, size = last * x, np.abs(x)
        bound = np.abs(head) * weights[:, :1] <= _EPS * np.abs(sums) * (1.0 - size)
        done = (size < 1.0) & bound.all(axis=0)
        pending, head = pending[~done], head[~done]
        first += _SERIES_WIDTH
    return out


# Every coefficient is an exact rational formed in integers and rounded once,
# by one int / int true division, which is correctly rounded, so it is the
# float of that rational. The builders never import fractions: it imports
# decimal, which takes about 2 ms.


@functools.cache
def _eta_weights() -> tuple[tuple[int, ...], int]:
    """Integers e_j and D with eta(s) ~ Sum_{j<n} e_j / (D (j+1)^s).

    Borwein's algorithm 2: eta(s) ~ Sum_{j<n} (-1)^j (1 - d_j / d_n) / (j+1)^s
    with d_j = n Sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!). Over the common
    denominator n! (2n)!, d_j is an integer D_j, so e_j = (-1)^j (D_n - D_j)
    and D = D_n.
    """
    n = _ETA_TERMS
    f = [math.factorial(i) for i in range(2 * n + 1)]
    d, partial = [], 0
    for i in range(n + 1):
        partial += n * f[n + i - 1] * 4**i * (f[n] // f[n - i]) * (f[2 * n] // f[2 * i])
        d.append(partial)
    return tuple((-1) ** j * (d[n] - d[j]) for j in range(n)), d[n]


def _etas(top: int, step: int):
    """(s, a, b) with eta(s) = a / b exactly in Borwein's series, for
    s = 2, 2 + step, ... <= top: each term's power from the one before, so
    the pass costs O(top^2) digit steps."""
    weights, den = _eta_weights()
    lcm = math.lcm(*range(1, _ETA_TERMS + 1))
    ratios = [(lcm // (j + 1)) ** step for j in range(_ETA_TERMS)]
    terms = [e * (lcm // (j + 1)) ** 2 for j, e in enumerate(weights)]
    den *= lcm**2
    for s in range(2, top + 1, step):
        yield s, sum(terms), den
        terms = [t * r for t, r in zip(terms, ratios)]
        den *= lcm**step


@functools.cache
def _bernoulli() -> tuple[tuple[int, ...], int]:
    """S B_n for n = 0.._MU_TERMS, with B_1 = -1/2, and S = lcm(1.._MU_TERMS + 1),
    from Sum_{j<=n} C(n+1, j) B_j = 0. By von Staudt and Clausen the
    denominator of B_n has no prime above n + 1, so S B_n is an integer and
    each division by n + 1 is exact."""
    scale = math.lcm(*range(1, _MU_TERMS + 2))
    b = [scale]
    for n in range(1, _MU_TERMS + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n) if b[j]) // (n + 1))
    return tuple(b), scale


@functools.lru_cache(maxsize=64)
def _mu_coefficients(k: int) -> tuple[tuple[float, ...], float]:
    """The mu expansion's coefficients zeta(k-j)/j!, with H_{k-1}/(k-1)! at
    j = k-1, highest power first, and the factor 1/(k-1)! of its log(-mu)
    term."""
    terms = max(_MU_TERMS, k)
    mu = [0.0] * terms
    # zeta(s) = eta(s) 2^(s-1) / (2^(s-1) - 1) at s = k - j >= 2, with j!
    # from (k-2)! down.
    factorial = math.factorial(k - 2)
    for s, a, b in _etas(k, 1):
        j = k - s
        mu[j] = (a << (s - 1)) / (b * ((1 << (s - 1)) - 1) * factorial)
        factorial //= max(j, 1)
    factorial = math.factorial(k - 1)
    mu[k - 1] = sum(factorial // j for j in range(1, k)) / factorial**2
    log_factor = 1 / factorial
    # zeta(-n) = (-1)^n B_{n+1} / (n+1) at n = j - k >= 0, only for k < _MU_TERMS.
    bernoulli, scale = _bernoulli()
    factorial *= k
    for j in range(k, terms):
        n = j - k
        mu[j] = (-1) ** n * bernoulli[n + 1] / (scale * (n + 1) * factorial)
        factorial *= j + 1
    return tuple(mu[::-1]), log_factor


@functools.lru_cache(maxsize=64)
def _inversion_coefficients(k: int) -> tuple[float, ...]:
    """The inversion polynomial's coefficients times m! for L^m, lowest
    power first: -1 at m = k and -2 eta(2r) at m = k - 2r."""
    c = [0.0] * (k + 1)
    c[k] = -1.0
    for s, a, b in _etas(k, 2):
        c[k - s] = -2 * a / b
    return tuple(c)


@functools.cache
def _ordered_stirling() -> tuple[tuple[int, ...], ...]:
    """a[n][j] = (-1)^(n-j) j! S(n, j) for j <= n <= _MU_TERMS, S the
    Stirling numbers of the second kind, from a(n, j) = j (a(n-1, j-1) -
    a(n-1, j))."""
    rows = [(1,)]
    for n in range(1, _MU_TERMS + 1):
        prev = rows[-1] + (0,)
        rows.append((0,) + tuple(j * (prev[j - 1] - prev[j]) for j in range(1, n + 1)))
    return tuple(rows)


@functools.lru_cache(maxsize=64)
def _u_coefficients(k: int) -> tuple[float, ...]:
    """d_n for n = _MU_TERMS..2, highest power first, in
    Li_k(1 - e^-u) - (1 - e^-u) = Sum_{n>=2} d_n u^n, where
    d_n = Sum_{2<=j<=n} (-1)^(n-j) j! S(n, j) / (n! j^k); each is rounded
    once from the exact sum of its terms with j^k <= 2^_U_BITS, over the
    common denominator n! lcm(j)^k, in integers."""
    a = _ordered_stirling()
    kept = [j for j in range(2, _MU_TERMS + 1) if k * math.log2(j) <= _U_BITS]
    lcm = math.lcm(1, *kept)
    # kept is 2, 3, ..., so scale lines up with a[n][2:].
    scale = [(lcm // j) ** k for j in kept]
    den = lcm**k
    return tuple(
        sum(map(operator.mul, a[n][2:], scale)) / (math.factorial(n) * den)
        for n in range(_MU_TERMS, 1, -1)
    )


def _expansions(orders: tuple[int, ...], z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Li_k(z) for each k >= 2 in orders, one row each. Every coordinate
    takes one series, the u-series or the mu expansion, and the two share
    one table of powers."""
    out = np.empty((len(orders), z.size))
    # 1/2 <= w <= 2: the u-series at v = z, exact there. w > 2: inversion
    # to v = 1/z, whose 1 - v lies in (1, 2). Either way u = -log(1 - v),
    # and Li_k(v) = v + Sum_{n>=2} d_n u^n.
    series = (w >= 0.5).nonzero()[0]
    v = z[series]
    far = (v < -1.0).nonzero()[0]
    v[far] = 1.0 / v[far]
    u = -np.log1p(-v)
    # 0 < w < 1/2: Li_k(e^mu) from the mu expansion, mu = log1p(-w) < 0.
    # Only an argument that takes it builds its coefficients, and only one
    # with w > 2 inversion's: those cost O(k^2) big-integer steps.
    near = (w < 0.5).nonzero()[0]
    mu = np.log1p(-w[near])
    mu_weights, factors = _weights(orders, "mu") if mu.size else (None, None)
    routes = [(_weights(orders, "u")[0] if u.size else None, u.size), (mu_weights, mu.size)]
    head = np.concatenate([u * u, np.ones_like(mu)])
    (u_sums, mu_sums), _ = _power_sums(head, np.concatenate([u, mu]), routes)
    if u.size:
        li = v + u_sums
        if far.size:
            weights, signs = _weights(orders, "inversion")
            inverted = _inversion_polynomials(weights, np.log(-z[series[far]]))
            for row, sign, polynomial in zip(li, signs, inverted):
                row[far] = sign * row[far] + polynomial
        for row, part in zip(out, li):  # a row at a time: 3x faster than out[:, series]
            row[series] = part
    if mu.size:
        log_mu = np.log(-mu)
        for row, sums, k, factor in zip(out, mu_sums, orders, factors):
            row[near] = sums - log_mu * (mu ** (k - 1) * factor)
    return out


@functools.lru_cache(maxsize=64)
def _weights(orders: tuple[int, ...], route: str) -> tuple[np.ndarray, object]:
    """One row per order of a route's coefficients, highest power first, a
    shorter row led by zeros, which add nothing to its sums, and what the
    route applies beside them: the u-series' ("u"; nothing), the mu
    expansion's ("mu"; the factors 1/(k-1)! of its log(-mu) terms), or the
    inversion polynomial's times m! for L^m ("inversion", transposed to one
    column per order; the signs (-1)^(k+1)). Kept per tuple of orders, so a
    chain of any length builds none of them again on a later call."""
    extra = None
    if route == "mu":
        rows, extra = zip(*(_mu_coefficients(k) for k in orders))
    elif route == "u":
        rows = [_u_coefficients(k) for k in orders]
    else:
        rows = [_inversion_coefficients(k)[::-1] for k in orders]
        extra = [(-1.0) ** (k + 1) for k in orders]
    out = np.zeros((len(rows), max(map(len, rows))))
    for row, c in zip(out, rows):
        row[out.shape[1] - len(c) :] = c
    if route == "inversion":  # Horner takes it a power at a time
        out = np.ascontiguousarray(out.T)
    out.flags.writeable = False
    return out, extra


def _inversion_polynomials(c: np.ndarray, big_l: np.ndarray) -> np.ndarray:
    """Sum_m c_m L^m / m! for each column of c, which holds c_K .. c_0 down
    its rows, one row each: c_0 + L/1 (c_1 + L/2 (c_2 + ... + L/K c_K)) in
    one Horner pass, so no 1/m! is formed (those underflow past k = 170
    while L^k / k! need not). A column's leading zeros stay +0 (L > 0) up
    to its own c_k, so each takes the steps of its own order alone."""
    out, steps = np.empty((big_l.size, c.shape[1])), big_l[:, None]
    out[:] = c[0]
    for m, row in zip(range(len(c) - 1, 0, -1), c[1:]):
        out *= steps / m
        out += row
    return out.T


def polylog_series(k, z):
    """Direct power-series summation, for |z| comfortably below 1.

    Terms come in blocks of 64. Each coordinate stops after the first block
    whose geometric tail bound falls within 2^-53 of its sum; ToleranceError
    if any has not stopped after 10000 terms, DomainError for |z| > 1.
    """
    k = require_index(k)
    z, _, shape = _arguments(z, None)
    if np.any(z < -1.0):  # _arguments has rejected z >= 1
        raise DomainError(f"the series diverges for |z| > 1, got {float(z[z < -1.0][0])!r}")
    return _caller_form(_series((k,), z)[0], shape)


def polylog(k, z=None, *, w=None):
    """Li_k(z) for integer k >= 0 and real z < 1, elementwise.

    Give either z or w = 1 - z. Pass w when the caller holds it exactly,
    as the pl sequence holds q/p: as w -> 0 every digit of w then reaches
    the result, where forming 1 - w would have lost them. For a tuple of
    orders k, one row per order on a leading axis, all from one pass.
    """
    orders = require_orders(k)
    z, w, shape = _arguments(z, w)
    high = tuple(j for j in orders if j > 1)
    rows = iter(_expansions(high, z, w) if high else ())
    log = None
    if 1 in orders:  # z is clipped in log1p's branch, not taken at z = 1 (w < 2^-53)
        log = np.where(np.abs(z) <= 0.5, -np.log1p(-np.minimum(z, 0.5)), -np.log(w))
    out = [z / w if j == 0 else log if j == 1 else next(rows) for j in orders]
    return _by_order(out, k, shape)
