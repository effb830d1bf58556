"""Truncated formal power series with exact integer coefficients.

A series knows its coefficients through degree ``truncation`` and
nothing beyond; every operation propagates the minimum truncation of
its operands.  There is no silent zero-extension: asking for a
coefficient past the truncation is an error.
"""

from __future__ import annotations

__all__ = [
    "SeriesError",
    "PowerSeries",
    "geometric_inverse",
    "reciprocal",
    "divide",
    "coproduct_module_series",
    "poincare_fiber_formula",
    "word_count_series_formula",
    "fiber_module_poincare_check",
]


class SeriesError(ValueError):
    """A series operation's precondition does not hold."""


class PowerSeries:
    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int | None = None):
        coeffs = [int(c) for c in coeffs]
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise SeriesError("truncation must be nonnegative")
        if len(coeffs) < truncation + 1:
            coeffs = coeffs + [0] * (truncation + 1 - len(coeffs))
        self.coeffs = coeffs[: truncation + 1]
        self.truncation = truncation

    @classmethod
    def zero(cls, truncation: int) -> "PowerSeries":
        return cls([0], truncation)

    @classmethod
    def one(cls, truncation: int) -> "PowerSeries":
        return cls([1], truncation)

    @classmethod
    def monomial(cls, degree: int, truncation: int, coeff: int = 1) -> "PowerSeries":
        if not 0 <= degree <= truncation:
            raise SeriesError(f"monomial degree {degree} outside 0..{truncation}")
        c = [0] * (truncation + 1)
        c[degree] = coeff
        return cls(c, truncation)

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise SeriesError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coeffs[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.truncation, other.truncation)
        return PowerSeries(
            [self.coeffs[n] + other.coeffs[n] for n in range(t + 1)], t
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.truncation, other.truncation)
        return PowerSeries(
            [self.coeffs[n] - other.coeffs[n] for n in range(t + 1)], t
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.truncation, other.truncation)
        out = [0] * (t + 1)
        for i in range(t + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(t + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(out, t)

    def scale(self, c: int) -> "PowerSeries":
        return PowerSeries([c * a for a in self.coeffs], self.truncation)

    def truncate(self, t: int) -> "PowerSeries":
        if not 0 <= t <= self.truncation:
            raise SeriesError(f"truncation {t} outside 0..{self.truncation}")
        return PowerSeries(self.coeffs[: t + 1], t)

    def matches(self, other: "PowerSeries") -> bool:
        """Coefficientwise equality through the shared truncation."""
        t = min(self.truncation, other.truncation)
        return self.coeffs[: t + 1] == other.coeffs[: t + 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.truncation, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"PowerSeries({self.coeffs}, truncation={self.truncation})"

    def to_json(self) -> dict:
        return {
            "coefficients": [str(c) for c in self.coeffs],
            "truncation": self.truncation,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PowerSeries":
        return cls([int(s) for s in obj["coefficients"]], int(obj["truncation"]))


def geometric_inverse(m: PowerSeries) -> PowerSeries:
    """Inverse of (1 - m) for a series m with zero constant term.

    Defined by g * (1 - m) = 1, i.e. g_0 = 1 and
    g_n = sum_{i=1..n} m_i * g_{n-i}.
    """
    if m.coeff(0) != 0:
        raise SeriesError("geometric inverse needs zero constant term")
    t = m.truncation
    g = [1] + [0] * t
    for n in range(1, t + 1):
        g[n] = sum(m.coeffs[i] * g[n - i] for i in range(1, n + 1))
    return PowerSeries(g, t)


def reciprocal(s: PowerSeries) -> PowerSeries:
    """Inverse of a series with constant term 1."""
    if s.coeff(0) != 1:
        raise SeriesError("reciprocal needs constant term 1")
    return geometric_inverse(PowerSeries.one(s.truncation) - s)


def divide(num: PowerSeries, denom: PowerSeries) -> PowerSeries:
    """num / denom for denom with constant term 1."""
    return num * reciprocal(denom)


def coproduct_module_series(
    h_a: PowerSeries, h_b: PowerSeries, h_m: PowerSeries
) -> PowerSeries:
    """Series of the induced module over a coproduct of connected algebras.

    For connected algebra series h_a, h_b (constant term 1) and a module
    series h_m over the first factor, returns
    h_m * h_b / (h_a + h_b - h_a * h_b).
    """
    if h_a.coeff(0) != 1 or h_b.coeff(0) != 1:
        raise SeriesError("algebra series must be connected")
    return divide(h_m * h_b, h_a + h_b - h_a * h_b)


def poincare_fiber_formula(
    p_s_m: PowerSeries, p_s_k: PowerSeries, p_t_k: PowerSeries
) -> PowerSeries:
    """Poincare series of an S-module over the fiber product ring:
    (P^S_M * P^T_k) / (P^S_k + P^T_k - P^S_k * P^T_k)."""
    return coproduct_module_series(p_s_k, p_t_k, p_s_m)


def word_count_series_formula(
    h_p: PowerSeries, h_e: PowerSeries, h_f: PowerSeries
) -> PowerSeries:
    """Closed form for the letter-word counts of the combined resolution:
    h_p * h_f / (1 - (h_e - 1) * (h_f - 1)), the coproduct module series
    since (h_e - 1)(h_f - 1) = 1 - (h_e + h_f - h_e * h_f)."""
    return coproduct_module_series(h_e, h_f, h_p)


def fiber_module_poincare_check(
    p_fib: PowerSeries,
    p_k: PowerSeries,
    rank_v: int,
    p_m: PowerSeries,
    p_n: PowerSeries,
) -> bool:
    """Check P_fib + rank_v * P_k == P_M + P_N through the shared truncation."""
    lhs = p_fib + p_k.scale(rank_v)
    rhs = p_m + p_n
    return lhs.matches(rhs)
