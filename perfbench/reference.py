"""Independent reference values for the benchmark's correctness checks.

Nothing here imports divseq. The polylogarithm is evaluated in float64 by
other routes than the library uses (the library sums the power series and
integrates the Bose-Einstein representation):

- |z| <= 1/2: the power series, always inside its comfortable radius;
- 1/2 < z < 1: the expansion of Li_s(e^mu) in mu = log z (|mu| < 2 pi),
  whose log(-mu) term is exact at the z -> 1 edge;
- -1 <= z < -1/2: the duplication formula Li_s(z) = 2^(1-s) Li_s(z^2) - Li_s(-z);
- z < -1: the inversion formula in 1/z.

Every entry point takes w = 1 - z = r/p rather than z, so no digits are lost
when r/p -> 0. mpmath evaluates Li_s per coordinate at about 1 ms a call,
which would make a reference cost 40 times the operation it checks at
supports of 10^4. So mpmath is used where it is cheap: it supplies the zeta
coefficients below, and ``mpmath_spot_check`` re-evaluates a seeded sample
of each run's coordinates at 40 digits and fails the run if the float64
routes disagree beyond 1e-13 relative.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MAX_ORDER = 4
_SERIES_TERMS = 64
_MU_TERMS = 32
_PI2 = math.pi**2

# c[s][j] = zeta(s - j) / j! for j != s - 1; the j = s - 1 term is the
# logarithmic one, handled separately.
_MU_COEFFS = {
    s: np.array(
        [
            0.0 if j == s - 1 else float(mpmath.zeta(s - j) / mpmath.factorial(j))
            for j in range(_MU_TERMS)
        ]
    )
    for s in range(2, MAX_ORDER + 1)
}
_HARMONIC = {s: sum(1.0 / j for j in range(1, s)) for s in range(2, MAX_ORDER + 1)}


def _series(s: int, z: np.ndarray) -> np.ndarray:
    j = np.arange(_SERIES_TERMS, 0, -1, dtype=float)
    out = np.zeros_like(z)
    for jj in j:  # Horner on z * sum z^(j-1) / j^s
        out = out * z + 1.0 / jj**s
    return out * z


def _mu_expansion(s: int, mu: np.ndarray) -> np.ndarray:
    """Li_s(e^mu) for -0.7 <= mu <= 0."""
    out = np.polynomial.polynomial.polyval(mu, _MU_COEFFS[s])
    nonzero = mu < 0.0
    safe = np.where(nonzero, -mu, 1.0)
    log_term = mu ** (s - 1) / math.factorial(s - 1) * (_HARMONIC[s] - np.log(safe))
    return out + np.where(nonzero, log_term, 0.0)


def _positive(s: int, y: np.ndarray) -> np.ndarray:
    """Li_s(y) for 0 <= y <= 1."""
    small = y <= 0.5
    out = np.empty_like(y)
    out[small] = _series(s, y[small])
    out[~small] = _mu_expansion(s, np.log(y[~small]))
    return out


def _negative(s: int, x: np.ndarray) -> np.ndarray:
    """Li_s(x) for -1 <= x <= 0."""
    small = x >= -0.5
    out = np.empty_like(x)
    out[small] = _series(s, x[small])
    far = x[~small]
    out[~small] = 2.0 ** (1 - s) * _positive(s, far * far) - _positive(s, -far)
    return out


def _inverted(s: int, w: np.ndarray) -> np.ndarray:
    """Li_s(1 - w) for w > 2, that is z < -1, from Li_s(1/z)."""
    big_l = np.log(w - 1.0)  # log(-z)
    inner = _negative(s, -1.0 / (w - 1.0))
    if s == 2:
        return -inner - _PI2 / 6.0 - 0.5 * big_l**2
    if s == 3:
        return inner - _PI2 / 6.0 * big_l - big_l**3 / 6.0
    if s == 4:
        return -inner - 7.0 * _PI2**2 / 360.0 - _PI2 / 12.0 * big_l**2 - big_l**4 / 24.0
    raise ValueError(f"order {s} is outside 0..{MAX_ORDER}")


def li_of_w(s: int, w) -> np.ndarray:
    """Li_s(1 - w) for integer 0 <= s <= 4 and w > 0, elementwise."""
    w = np.asarray(w, dtype=float)
    if np.any(~(w > 0.0)) or not np.all(np.isfinite(w)):
        raise ValueError("w must be finite and positive")
    if s == 0:
        return (1.0 - w) / w
    if s == 1:
        return -np.log(w)
    if not 2 <= s <= MAX_ORDER:
        raise ValueError(f"order {s} is outside 0..{MAX_ORDER}")
    out = np.empty_like(w)
    near = w < 0.5
    mid = (w >= 0.5) & (w <= 1.5)
    edge = (w > 1.5) & (w <= 2.0)
    far = w > 2.0
    out[near] = _mu_expansion(s, np.log1p(-w[near]))
    out[mid] = _series(s, 1.0 - w[mid])
    out[edge] = _negative(s, 1.0 - w[edge])
    out[far] = _inverted(s, w[far])
    return out


def mixture_row(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """R(t) = (1-t) p + t q, the same float formula the path is defined by."""
    return (1.0 - t) * p + t * q


def pl(k: int, p: np.ndarray, r: np.ndarray) -> float:
    """Sum_i p_i Li_k(1 - r_i/p_i), summed exactly."""
    return math.fsum(p * li_of_w(k, r / p))


def jeffreys(p: np.ndarray, r: np.ndarray) -> float:
    return math.fsum((p - r) * np.log(p / r))


def sl(k: int, p: np.ndarray, r: np.ndarray) -> float:
    """Jeffreys(P, R) minus pl(1..k)."""
    return math.fsum([jeffreys(p, r)] + [-pl(j, p, r) for j in range(1, k + 1)])


def sl_scale(k: int, p: np.ndarray, r: np.ndarray) -> float:
    """|Jeffreys| + sum_j |pl(j)|: the magnitude sl(k) is computed from."""
    return abs(jeffreys(p, r)) + sum(abs(pl(j, p, r)) for j in range(1, k + 1))


def hellinger2(p: np.ndarray, r: np.ndarray) -> float:
    return 0.5 * math.fsum((np.sqrt(r) - np.sqrt(p)) ** 2)


def hellinger_psi(p: np.ndarray, r: np.ndarray) -> float:
    """psi applied once to squared Hellinger, in closed form:
    Sum_i p_i [(sqrt(w_i) - 1)^2 + 2 log((1 + sqrt(w_i)) / 2)], w = r/p."""
    d = np.sqrt(r / p) - 1.0
    return math.fsum(p * (d * d + 2.0 * np.log1p(0.5 * d)))


def sweep_levels(div: str, depth: int, p: np.ndarray, r: np.ndarray) -> list:
    """Closed forms of psi^k[div] at R(t) = r for k = 0..depth; None where
    there is none (squared Hellinger beyond level 1)."""
    if div == "hellinger2":
        return [hellinger2(p, r), hellinger_psi(p, r)] + [None] * (depth - 1)
    shift = 1 if div in ("kl", "reverse_kl") else 0
    pls = [pl(j, p, r) for j in range(depth + shift + 1)]
    if div in ("chi2", "kl"):
        return pls[shift:]
    if div in ("jeffreys", "reverse_kl"):
        sls = [math.fsum([jeffreys(p, r)] + [-x for x in pls[1:k + 1]])
               for k in range(depth + shift + 1)]
        return sls[shift:]
    raise ValueError(f"no reference for divergence {div!r}")


def mpmath_spot_check(samples, digits: int = 40) -> float:
    """Largest relative gap between li_of_w and mpmath.polylog over the
    (s, w) samples; each w is converted exactly and 1 - w taken in mpmath."""
    worst = 0.0
    with mpmath.workdps(digits):
        for s, w in samples:
            exact = mpmath.polylog(s, 1 - mpmath.mpf(float(w)))
            ours = float(li_of_w(s, np.array([w]))[0])
            gap = abs(mpmath.mpf(ours) - exact) / max(abs(exact), mpmath.mpf(1e-300))
            worst = max(worst, float(gap))
    return worst
