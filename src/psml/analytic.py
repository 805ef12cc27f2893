"""Closed-form model of conjunctive-predicate detection accuracy.

The model covers a system of ``n`` processes whose integer clocks stay
within ``eps`` of each other.  Each process's local predicate turns
true at a clock tick with probability ``beta`` (independently per
tick) and stays true for an interval of ``ell`` ticks.  A monitor
reports a detection when it finds one true interval per process that
are pairwise causally concurrent; the detection is a true positive
when those intervals additionally fit inside a window of width
``eps``.

Everything here is derived from one building block: anchored at one
process's true interval, the distance to the nearest true interval of
another process is geometric with success rate ``beta``, so the chance
that all ``n - 1`` other processes have a true point within ``eps``
ticks is ``(1 - (1-beta)**eps)**(n-1)``.

All functions compute in the log domain (``log1p`` / ``expm1``) so
that tiny rates (``beta = 1e-6``) and huge windows (``eps = 1e9``)
round-trip to relative accuracy near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "phi_point",
    "phi_interval",
    "inflection_points",
    "uncertainty_ratio",
    "precision",
    "recall",
    "EpsInterval",
    "admissible_eps_mon",
    "phase_transition",
    "is_hypersensitive",
    "hlc_recall",
    "hlc_min_len_half_recall",
    "pma_fpr_estimate",
]


# ---------------------------------------------------------------------------
# numeric core: powers of q = 1 - beta without cancellation
# ---------------------------------------------------------------------------


def _q_pow(beta: float, x: float) -> float:
    """(1 - beta) ** x, stable for tiny beta and huge x."""
    if x == 0:
        return 1.0
    if math.isinf(x) or beta == 1.0:
        return 0.0
    return math.exp(x * math.log1p(-beta))


def _one_minus_q_pow(beta: float, x: float) -> float:
    """1 - (1 - beta) ** x, stable when the power is close to 1."""
    if x == 0:
        return 0.0
    if math.isinf(x) or beta == 1.0:
        return 1.0
    return -math.expm1(x * math.log1p(-beta))


def _log_q(beta: float, y: float) -> float:
    """log base (1 - beta) of y, for y > 0."""
    if y <= 0:
        raise ValueError("log argument must be positive")
    if y == 1.0:
        return 0.0
    return math.log(y) / math.log1p(-beta)


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")


def _check_beta(beta: float, *, allow_one: bool = True) -> None:
    if not (0.0 < beta < 1.0 or (allow_one and beta == 1.0)):
        raise ValueError("beta must be in (0, 1]" if allow_one else "beta must be in (0, 1)")


def _check_eps(eps: float, name: str = "eps") -> None:
    if not eps >= 0:
        raise ValueError(f"{name} must be non-negative")


def _check_ell(ell: float) -> None:
    if not ell >= 1:
        raise ValueError("ell must be at least 1")


# ---------------------------------------------------------------------------
# detection probability and its shape
# ---------------------------------------------------------------------------


def phi_point(eps: float, n: int, beta: float) -> float:
    """Probability that a detected cut of point predicates fits in ``eps``.

    Anchored at one process's true point, every other process must
    have a true point within ``eps`` ticks:

        phi(eps) = (1 - (1-beta)**eps) ** (n-1)
    """
    return phi_interval(eps, n, beta, 1)


def phi_interval(eps: float, n: int, beta: float, ell: float) -> float:
    """phi for predicates that stay true for ``ell`` ticks.

    An interval of length ``ell`` gives each process ``ell - 1`` extra
    ticks of slack, shifting the window to ``eps + ell - 1``.
    """
    _check_n(n)
    _check_beta(beta)
    _check_eps(eps)
    _check_ell(ell)
    # associate as eps + (ell-1): at ell = 1 the exponent is exactly eps
    # even when eps is below one ulp of 1
    return _one_minus_q_pow(beta, eps + (ell - 1)) ** (n - 1)


def _band_roots(n: int) -> tuple[float, float]:
    """The roots ``(3n - 4 +- sqrt(5n^2 - 16n + 12)) / (2(n-1)^2)`` of
    (n-1)^2 u^2 - (3n-4) u + 1, as ``(a_plus, a_minus)``."""
    root = math.sqrt(5.0 * n * n - 16.0 * n + 12.0)
    den = 2.0 * (n - 1.0) ** 2
    return (3.0 * n - 4.0 + root) / den, (3.0 * n - 4.0 - root) / den


def inflection_points(n: int, beta: float) -> tuple[float, float]:
    """The two zeros of phi_point's third derivative in ``eps``.

    Between these two points the detection probability crosses from
    near-0 to near-1; their location pins down where a system flips
    from "nothing fits in the window" to "everything does".  Both are

        log_{1-beta}( (3n - 4 +- sqrt(5n^2 - 16n + 12)) / (2(n-1)^2) )

    with the ``+`` branch giving the smaller eps.  Returns
    ``(eps_p1, eps_p2)`` with ``eps_p1 <= eps_p2``; both collapse to 0
    at n = 2.
    """
    _check_n(n)
    _check_beta(beta, allow_one=False)
    a_plus, a_minus = _band_roots(n)
    return _log_q(beta, a_plus), _log_q(beta, a_minus)


def uncertainty_ratio(n: int, beta: float) -> float:
    """Relative width (eps_p2 - eps_p1) / eps_p1 of the transition band.

    The beta dependence cancels exactly: both inflection points scale
    by the same 1/log(1-beta) factor, so the ratio is computed from
    the band's log-domain endpoints and is bit-identical across beta.
    Requires n > 2 (at n = 3 the lower point sits at eps = 0 and the
    ratio diverges; returns inf).
    """
    if n <= 2:
        raise ValueError("uncertainty ratio needs n > 2")
    _check_beta(beta, allow_one=False)
    log_a_plus, log_a_minus = map(math.log, _band_roots(n))
    if log_a_plus == 0.0:
        return math.inf
    return (log_a_minus - log_a_plus) / log_a_plus


# ---------------------------------------------------------------------------
# precision / recall of a monitor window against the system window
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """``num / den``, or NaN (undefined) for a zero denominator: the one
    rule for closed-form and simulated ratios alike."""
    return num / den if den else float("nan")


def _window_ratio(num: float, den: float, n: int, beta: float, ell: float) -> float:
    """phi_interval(num) / phi_interval(den): exactly 1 when num >= den,
    NaN when the denominator is 0.  n, beta and ell are checked first,
    so the shortcut never hides an invalid model."""
    _check_n(n)
    _check_beta(beta)
    _check_ell(ell)
    if num >= den:
        return 1.0
    return _ratio(phi_interval(num, n, beta, ell), phi_interval(den, n, beta, ell))


def precision(eps_mon: float, eps_app: float, n: int, beta: float, ell: float = 1) -> float:
    """Fraction of cuts the monitor accepts that the system also admits.

    With f(x) = (1 - (1-beta)**(x + ell - 1))**(n-1):

        precision = f(min(eps_app, eps_mon)) / f(eps_mon)

    Exactly 1 whenever eps_mon <= eps_app (everything accepted is
    admissible by the wider system window).
    """
    _check_eps(eps_mon, "eps_mon")
    _check_eps(eps_app, "eps_app")
    return _window_ratio(eps_app, eps_mon, n, beta, ell)


def recall(eps_mon: float, eps_app: float, n: int, beta: float, ell: float = 1) -> float:
    """Fraction of system-admissible cuts the monitor accepts.

        recall = f(min(eps_app, eps_mon)) / f(eps_app)

    Exactly 1 whenever eps_mon >= eps_app.
    """
    _check_eps(eps_mon, "eps_mon")
    _check_eps(eps_app, "eps_app")
    return _window_ratio(eps_mon, eps_app, n, beta, ell)


@dataclass(frozen=True, slots=True)
class EpsInterval:
    """A range of admissible monitor windows ``[lo, hi]``.

    ``unbounded_hi`` marks hi = +inf (any window at least ``lo`` works).
    ``empty`` is always False, as the interval always holds eps_app; it
    stays because ``analytic bound`` prints it.
    """

    lo: float
    hi: float
    empty: bool = False
    unbounded_hi: bool = False


def admissible_eps_mon(eps_app: float, n: int, beta: float, ell: float, eta: float) -> EpsInterval:
    """Monitor windows keeping both precision and recall at least ``eta``.

    Inverting the precision/recall ratios around g = 1 -
    (1-beta)**(eps_app + ell - 1) gives, with s = eta**(1/(n-1)),

        lo = log_{1-beta}(1 - s*g)   - ell + 1   (recall = eta there)
        hi = log_{1-beta}(1 - g/s)   - ell + 1   (precision = eta there)

    ``lo`` is clamped at 0.  When g >= s the precision constraint never
    binds and hi is unbounded.  Precision and recall are both 1 at
    eps_app, so ``lo <= eps_app <= hi``, clamped against rounding, and
    the interval is the point eps_app when s rounds to 1.
    """
    _check_n(n)
    _check_beta(beta, allow_one=False)
    _check_eps(eps_app, "eps_app")
    _check_ell(ell)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    s = eta ** (1.0 / (n - 1))
    eps = float(eps_app)
    if s == 1.0:
        return EpsInterval(eps, eps)
    g = _one_minus_q_pow(beta, eps_app + (ell - 1))
    lo = min(max(_log_q(beta, 1.0 - s * g) - ell + 1, 0.0), eps)
    a_hi = 1.0 - g / s
    if a_hi <= 0.0:
        return EpsInterval(lo, math.inf, unbounded_hi=True)
    return EpsInterval(lo, max(_log_q(beta, a_hi) - ell + 1, eps))


def phase_transition(n: int, beta: float, ell: float, eta: float) -> float:
    """System window at or below which the monitor is hypersensitive.

    For eps_app <= this threshold no monitor window can hold both
    precision and recall above ``eta`` robustly: the admissible band
    is squeezed into the sharp rise of the detection curve.

        threshold = log_{1-beta}(eta**(-1/(n-1)) - 1) - ell + 1

    Grows without bound as eta -> 1 (every system is hypersensitive
    under an exact-accuracy demand) and can be negative for lax eta
    (no system is).
    """
    _check_n(n)
    _check_beta(beta, allow_one=False)
    _check_ell(ell)
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    arg = eta ** (-1.0 / (n - 1)) - 1.0
    return math.log(arg) / math.log1p(-beta) - ell + 1


def is_hypersensitive(eps_app: float, n: int, beta: float, ell: float, eta: float) -> bool:
    """True when ``eps_app`` sits at or below the phase transition."""
    _check_eps(eps_app, "eps_app")
    return eps_app <= phase_transition(n, beta, ell, eta)


# ---------------------------------------------------------------------------
# scalar-clock (quasi-synchronous) monitoring
# ---------------------------------------------------------------------------


def hlc_recall(eps_app: float, n: int, beta: float, ell: float) -> float:
    """Recall of a monitor that demands a common scalar clock value.

    Such a monitor only sees cuts whose intervals all overlap one
    tick, so against the cuts admissible within ``eps_app``:

        recall = ((1 - (1-beta)**ell) / (1 - (1-beta)**(eps_app + ell))) ** (n-1)

    Equal to 1 at eps_app = 0 and decreasing in eps_app; longer
    intervals recover recall.
    """
    _check_n(n)
    _check_beta(beta)
    _check_eps(eps_app, "eps_app")
    _check_ell(ell)
    if eps_app == 0:
        return 1.0
    num = _one_minus_q_pow(beta, ell)
    den = _one_minus_q_pow(beta, eps_app + ell)
    return (num / den) ** (n - 1)


def hlc_min_len_half_recall(eps_app: float, n: int, beta: float) -> float:
    """Smallest interval length giving the scalar-clock monitor recall 1/2.

    Solving hlc_recall(eps_app, n, beta, ell) = 1/2 for ell, with
    u = 2**(1/(n-1)):

        ell = log_{1-beta}( (u - 1) / (u - (1-beta)**eps_app) )

    Real-valued (round up for integer lengths); 0 at eps_app = 0.
    """
    _check_n(n)
    _check_beta(beta, allow_one=False)
    _check_eps(eps_app, "eps_app")
    u = 2.0 ** (1.0 / (n - 1))
    return _log_q(beta, (u - 1.0) / (u - _q_pow(beta, eps_app)))


# ---------------------------------------------------------------------------
# correlated predicates: follower-group estimate
# ---------------------------------------------------------------------------


def pma_fpr_estimate(eps: float, g2: int, beta: float, p_ind: float) -> float:
    """Estimated false-positive rate with a follower group of size ``g2``.

    Followers fire independently only with probability ``p_ind``, so
    their effective independent rate is ``p_ind * beta`` and a
    detection is a false positive when some follower has no
    independent firing within ``eps`` of the leaders:

        1 - (1 - (1 - p_ind*beta)**eps) ** g2

    An approximation (leader spread is ignored), not an exact law.
    """
    if g2 < 1:
        raise ValueError("g2 must be at least 1")
    _check_beta(beta)
    _check_eps(eps)
    if not 0.0 <= p_ind <= 1.0:
        raise ValueError("p_ind must be in [0, 1]")
    beta_ind = p_ind * beta
    if beta_ind == 0.0:
        return 1.0
    return 1.0 - _one_minus_q_pow(beta_ind, eps) ** g2
