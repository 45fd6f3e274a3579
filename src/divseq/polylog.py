"""Integer-order polylogarithm Li_k(z) for real z < 1, elementwise.

Every entry point takes a scalar, which gives a float, or an array, which
gives an array of the same shape. The kernel works on the pair z and
w = 1 - z and takes each from the form the caller holds exactly:
``polylog`` takes either. The pl sequence passes w = q/p, so no digits
are lost to forming 1 - q/p as q/p -> 0.

- Orders 0 and 1 use their closed forms z/w and -log w (-log1p(-z) for
  |z| <= 1/2).
- For |z| <= 1/2 the defining power series Sum_{j>=1} z^j / j^k: 64 terms
  in one table of powers, contracted with the weights j^-k.
- For 1/2 < z < 1, that is 0 < w < 1/2, the expansion in mu = log z =
  log1p(-w), which converges for |mu| < 2 pi,

      Li_k(e^mu) = Sum_{j != k-1} zeta(k-j) mu^j / j!
                   + mu^(k-1) / (k-1)! * (H_{k-1} - log(-mu)),

  with H the harmonic numbers. Its log(-mu) term carries every digit of w
  as w -> 0.
- For -1 <= z < -1/2, duplication,
  Li_k(z) = 2^(1-k) Li_k(z^2) - Li_k(-z), takes both terms to the two
  routes above; -z = w - 1 and 1 + z are exact there.
- For z < -1, inversion, with L = log(-z) = log(w - 1),

      Li_k(z) = (-1)^(k+1) Li_k(1/z) - L^k / k!
                - 2 Sum_{1 <= r <= k/2} eta(2r) L^(k-2r) / (k-2r)!,

  takes 1/z, in (-1, 0), to the series or duplication. The polynomial in
  L is -(2 pi i)^k / k! B_k(1/2 + L / (2 pi i)), B_k the Bernoulli
  polynomial, and eta(s) = (1 - 2^(1-s)) zeta(s).

So no route integrates, and every seam lies at |z| = 1/2 or z = -1 (w in
{1/2, 3/2, 2}). A tuple of orders shares the routing and the tables of z^j
and mu^j, and each order adds its own contractions. The coefficients are
built once per order from exact rationals: zeta at nonpositive integers
from Bernoulli numbers, and eta, hence zeta, at s >= 2 from Borwein's
alternating series ("An efficient algorithm for the Riemann zeta
function", 2000). See Lewin, *Polylogarithms and Associated Functions*
(1981), for the expansions.

The tests check both routes against a quadrature of the Bose-Einstein
representation, which shares nothing with them (tests/polylog_oracles.py).

The module contract is 1e-12 relative accuracy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .chebyshev import _BLOCK_CELLS
from .distributions import _caller_form
from .errors import DomainError, ToleranceError, require_index, require_orders

if TYPE_CHECKING:
    from fractions import Fraction

_SERIES_RADIUS = 0.5
# Terms per block of the power series. At |z| <= 1/2 the tail past one block
# is under 2^-64 of the sum, so one block is the whole series.
_SERIES_WIDTH = 64
_SERIES_MAX_TERMS = 10_000
_EPS = 2.0**-53
# Terms of the mu expansion, or k if more. At |mu| <= log 2 the first term
# left out is below 1e-19 for every order.
_MU_TERMS = 20
# Borwein's series for eta(s) with n terms errs by under 3 / (3 + sqrt 8)^n
# for real s >= 2: 1.3e-18 at n = 24.
_ETA_TERMS = 24


def _arguments(z, w) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Flat z and w = 1 - z, each formed from the one the caller gave."""
    if (z is None) == (w is None):
        raise DomainError("give the argument as z or as w = 1 - z, not both")
    given = np.asarray(z if w is None else w, dtype=float)
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


def _by_order(values: np.ndarray, k, shape: tuple):
    """Rows (orders, ...) in the caller's form: one row for one order k."""
    if isinstance(k, tuple):
        return values.reshape(values.shape[:1] + shape)
    return _caller_form(values[0], shape)


def _power_table(head: np.ndarray, x: np.ndarray, width: int) -> np.ndarray:
    """table[width - 1 - j, i] = head_i x_i^j for j < width, by doubling. A
    lone coordinate gets a zero column beside it, so that every contraction
    of a table runs one loop order, whatever its size."""
    table, power = np.zeros((width, max(x.size, 2))), np.zeros(max(x.size, 2))
    table[-1, : x.size], power[: x.size] = head, x
    done = 1
    while done < width:
        n = min(done, width - done)
        np.multiply(table[-n:], power, out=table[width - done - n : width - done])
        power *= power
        done *= 2
    return table


def _power_sums(head: np.ndarray, x: np.ndarray, weights) -> tuple:
    """Sum_j c_j head x^j for each coefficient vector c (highest power
    first), one row each, and the top power head x^(width - 1). A table has
    at most _BLOCK_CELLS cells, which bounds the memory a large support
    takes; a contraction adds the terms smallest first."""
    width = max(c.size for c in weights)
    out, top = np.empty((len(weights), x.size)), np.empty(x.size)
    step = max(1, _BLOCK_CELLS // width)
    for lo in range(0, x.size, step):
        chunk = slice(lo, lo + step)
        count = x[chunk].size
        table = _power_table(head[chunk], x[chunk], width)
        for row, c in zip(out, weights):
            row[chunk] = np.einsum("ji,j->i", table[width - c.size :], c)[:count]
        top[chunk] = table[0, :count]
    return out, top


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
        sums, last = _power_sums(head, x, weights)
        out[:, pending] = sums = sums + out[:, pending]
        head, size = last * x, np.abs(x)
        bound = np.abs(head) * weights[:, :1] <= _EPS * np.abs(sums) * (1.0 - size)
        done = (size < 1.0) & bound.all(axis=0)
        pending, head = pending[~done], head[~done]
        first += _SERIES_WIDTH
    return out


# The coefficient builders import fractions on first use, not with the
# module: it imports decimal, which takes about 3 ms.


@functools.lru_cache(maxsize=1)
def _eta_weights() -> tuple[Fraction, ...]:
    # Borwein's algorithm 2: eta(s) ~ Sum_{j<n} (-1)^j (1 - d_j / d_n) / (j+1)^s
    # with d_j = n Sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!).
    from fractions import Fraction

    n, d, partial = _ETA_TERMS, [], Fraction(0)
    for i in range(n + 1):
        partial += Fraction(
            n * math.factorial(n + i - 1) * 4**i,
            math.factorial(n - i) * math.factorial(2 * i),
        )
        d.append(partial)
    return tuple((-1) ** j * (1 - d[j] / d[n]) for j in range(n))


@functools.lru_cache(maxsize=64)
def _eta(s: int) -> Fraction:
    """Dirichlet eta(s) for s >= 2, to 1.3e-18 relative; orders share it."""
    return sum(c / (j + 1) ** s for j, c in enumerate(_eta_weights()))


@functools.cache
def _bernoulli() -> tuple[Fraction, ...]:
    """B_0.._MU_TERMS, with B_1 = -1/2, from Sum_{j<=n} C(n+1, j) B_j = 0:
    once per process, as every order's coefficients take them. The odd
    ones past B_1 are 0 and add nothing."""
    from fractions import Fraction

    b = [Fraction(1)]
    for n in range(1, _MU_TERMS + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n) if b[j]) / (n + 1))
    return tuple(b)


@functools.lru_cache(maxsize=64)
def _coefficients(k: int) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """The mu expansion's coefficients, highest power first, the factor
    1/(k-1)! of its log(-mu) term, and the inversion polynomial's
    coefficients times m! for L^m, lowest power first; each rounded once
    from an exact rational."""
    from fractions import Fraction

    terms = max(_MU_TERMS, k)
    bernoulli = _bernoulli()  # zeta(k - j) for j < terms needs B_(terms - k) at most

    def zeta(s: int) -> Fraction:
        if s >= 2:
            return _eta(s) / (1 - Fraction(1, 2 ** (s - 1)))
        n = -s  # zeta(-n) = (-1)^n B_{n+1} / (n+1)
        return (-1) ** n * bernoulli[n + 1] / (n + 1)

    harmonic = sum(Fraction(1, j) for j in range(1, k))
    mu = [
        (harmonic if j == k - 1 else zeta(k - j)) / math.factorial(j)
        for j in range(terms)
    ]
    inversion = [Fraction(0)] * (k + 1)
    inversion[k] = Fraction(-1)
    for r in range(1, k // 2 + 1):
        inversion[k - 2 * r] = -2 * _eta(2 * r)
    mu, inversion = (tuple(float(c) for c in cs) for cs in (mu[::-1], inversion))
    return mu, float(Fraction(1, math.factorial(k - 1))), inversion


def _expansions(orders: tuple[int, ...], z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Li_k(z) for each k >= 2 in orders, one row each."""
    # Inversion takes z < -1 to v = 1/z in (-1, 0), and duplication then
    # takes v < -1/2 to Li_k(x^2) and Li_k(x), x = -v in (1/2, 1].
    far = z < -1.0
    v = z.copy()
    v[far] = 1.0 / z[far]
    doubled = v < -_SERIES_RADIUS
    rest = ~doubled
    x = -v[doubled]
    mu_x = np.log1p(x - 1.0)  # x - 1 is exact for 1/2 <= x <= 1
    mu = np.zeros_like(v)
    high = v > _SERIES_RADIUS
    mu[high] = np.log1p(-w[high])
    # Every argument now lies in [-1/2, 1], with its log where above 1/2.
    args = np.concatenate([v[rest], x, x * x])
    logs = np.concatenate([mu[rest], mu_x, 2.0 * mu_x])
    li = np.empty((len(orders), args.size))
    near = args <= _SERIES_RADIUS
    li[:, near] = _series(orders, args[near])
    # Li_k(e^mu) for log(1/2) <= mu <= 0 from the mu expansion; its term
    # mu^(k-1) log(-mu) -> 0 as mu -> 0, so it is dropped at mu = 0. Its
    # coefficients cost about k^2.7 to build, so only an argument that takes
    # it builds them.
    logs = logs[~near]
    if logs.size:
        coefficients = [_coefficients(k) for k in orders]
        powers = [np.array(c) for c, _, _ in coefficients]
        li[:, ~near], _ = _power_sums(np.ones_like(logs), logs, powers)
        log_mu = np.log(np.where(logs < 0.0, -logs, 1.0))
        for li_k, k, (_, log_factor, _) in zip(li, orders, coefficients):
            li_k[~near] -= log_mu * (logs ** (k - 1) * log_factor)
    n, m = np.count_nonzero(rest), x.size
    out = np.empty((len(orders), z.size))
    for row, li_k, k in zip(out, li, orders):
        row[rest] = li_k[:n]
        row[doubled] = 2.0 ** (1 - k) * li_k[n + m :] - li_k[n : n + m]
        if far.any():
            row[far] = (-1) ** (k + 1) * row[far] + _inversion_polynomial(k, np.log(-z[far]))
    return out


def _inversion_polynomial(k: int, big_l: np.ndarray) -> np.ndarray:
    # Sum_m c_m L^m / m! as c_0 + L/1 (c_1 + L/2 (c_2 + ... + L/k c_k)), so
    # no 1/m! is formed: those underflow past k = 170 while L^k / k! need not.
    _, _, c = _coefficients(k)
    out = np.full_like(big_l, c[k])
    for m in range(k, 0, -1):
        out *= big_l / m
        out += c[m - 1]
    return out


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
    return _by_order(np.array(out), k, shape)
