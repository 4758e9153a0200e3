"""Named closed-form fixtures: generating functions with known coefficient
tables, used by the acceptance checks and the ``fixtures`` CLI subcommand.

Each fixture pairs an evaluator (or a symbol/pencil) with the exact sequence
it should reproduce, so a single inversion-plus-comparison run certifies the
whole pipeline on a case with a known answer.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Box, Envelope, SequenceTable, nonneg_orthant
from .solver import OperatorPencil, Symbol, WeylFractionalSymbol, WeylTerm
from .fractional import cesaro
from .ztransform import (
    CustomRegion,
    Outside,
    PolyAnnulus,
    TransformEvaluator,
)


# ---------------------------------------------------------------------------
# Probability fixture: success-run counting random walk
# ---------------------------------------------------------------------------


def probability_evaluator(p: float = 0.3, q: float = 0.7) -> TransformEvaluator:
    """F(z1,z2) = 1/(1 - p/(z2 (z1-q))) * sum_{s=0}^{S} (q/z1)^s, S = 60.

    The generating function of the success-count distribution
    f(k1,k2) = C(k1,k2) p^k2 q^(k1-k2); the geometric factor in z1 is
    truncated at S so the evaluator is entire away from its poles.
    """

    def fn(z):
        z1, z2 = z
        geo = sum((q / z1) ** s for s in range(61))
        return geo / (1.0 - p / (z2 * (z1 - q)))

    region = PolyAnnulus((Outside(1.0), Outside(1.0)))
    return TransformEvaluator(fn, region)


def probability_table(p: float = 0.3, q: float = 0.7, K: int = 12) -> SequenceTable:
    """f(k1,k2) = C(k1,k2) p^k2 q^(k1-k2) on the triangle k2 <= k1."""

    def fn(k):
        k1, k2 = k
        if k2 > k1:
            return 0.0
        return math.comb(k1, k2) * p**k2 * q ** (k1 - k2)

    return SequenceTable.from_function(nonneg_orthant(2), Box((0, 0), (K, K)), fn)


# ---------------------------------------------------------------------------
# Binomial fixture: z1 z2 / (z1 z2 - a z2 - b z1)
# ---------------------------------------------------------------------------


def binomial_evaluator(a: float = 0.3, b: float = 0.4) -> TransformEvaluator:
    """Generating function of u(k1,k2) = C(k1+k2, k1) a^k1 b^k2.

    The convergence geometry a/|z1| + b/|z2| < 1 is not a product of annuli,
    so the region is a custom modulus predicate.
    """

    def fn(z):
        z1, z2 = z
        return z1 * z2 / (z1 * z2 - a * z2 - b * z1)

    region = CustomRegion(2, lambda mods: a / mods[0] + b / mods[1] < 1.0)
    return TransformEvaluator(fn, region)


def binomial_table(a: float = 0.3, b: float = 0.4, K: int = 10) -> SequenceTable:
    """Series coefficients of the binomial generating function.

    1/(1 - a/z1 - b/z2) expands to sum over (k1,k2) of the multinomial
    C(k1+k2, k1) a^k1 b^k2 z1^-k1 z2^-k2; constant term 1 at the origin.
    """

    def fn(k):
        k1, k2 = k
        return math.comb(k1 + k2, k1) * a**k1 * b**k2

    return SequenceTable.from_function(nonneg_orthant(2), Box((0, 0), (K, K)), fn)


# ---------------------------------------------------------------------------
# Diagonal fixture: f(k,k) = a^-k
# ---------------------------------------------------------------------------


def diagonal_table(a: float = 2.0, K: int = 40) -> SequenceTable:
    """2-D sequence supported on the diagonal, f(k,k) = a^-k."""

    def fn(k):
        return a ** (-k[0]) if k[0] == k[1] else 0.0

    return SequenceTable.from_function(nonneg_orthant(2), Box((0, 0), (K, K)), fn)


def diagonal_closed_form(a: float, z) -> complex:
    """1 / (1 - a^-1 z1^-1 z2^-1), valid for |z1 z2| > 1/a."""
    z1, z2 = z
    return 1.0 / (1.0 - 1.0 / (a * z1 * z2))


def diagonal_tail(a: float, K: int, z) -> float:
    """Geometric bound on the transform tail beyond the stored diagonal."""
    t = 1.0 / (a * abs(z[0]) * abs(z[1]))
    if t >= 1.0:
        return math.inf
    return t ** (K + 1) / (1.0 - t)


# ---------------------------------------------------------------------------
# Data generators
# ---------------------------------------------------------------------------


def geometric_table(lam: float = 0.5, K: int = 32) -> SequenceTable:
    """f(k) = lam^k on N0 with the exact envelope (1, lam)."""
    return SequenceTable.from_function(
        nonneg_orthant(1),
        Box((0,), (K,)),
        lambda k: lam ** k[0],
        envelope=Envelope(1.0, (abs(lam),)),
    )


def gaussian_table(n: int = 2, K: int = 12) -> SequenceTable:
    """f(k) = exp(-|k|^2) on N0^n; exp(-k^2) <= exp(-k) gives the envelope."""
    rate = math.exp(-1.0)
    return SequenceTable.from_function(
        nonneg_orthant(n),
        Box((0,) * n, (K,) * n),
        lambda k: math.exp(-sum(c * c for c in k)),
        envelope=Envelope(1.0, (rate,) * n),
    )


# ---------------------------------------------------------------------------
# Solver fixtures
# ---------------------------------------------------------------------------


def scaling_pencil(A: np.ndarray | None = None) -> Symbol:
    """A u(k1+1, k2+1) - u(k1, k2) = f(k1, k2), default A = diag(2, 3).

    The Green kernel is diagonal-supported: G(j, j) = A^-(j+1) ... realized
    by contour inversion of (z1 z2 A - I)^-1.
    """
    if A is None:
        A = np.diag([2.0, 3.0]).astype(complex)
    A = np.asarray(A, dtype=complex)
    m = A.shape[0]
    return OperatorPencil(
        2, m, (((1, 1), A), ((0, 0), -np.eye(m))), np.eye(m)
    )


def first_order_pencil(lam: float) -> Symbol:
    """u(k+1) - lam u(k) = f(k), scalar."""
    return OperatorPencil(1, 1, (((1,), np.array([[1.0]])), ((0,), np.array([[-lam]]))), np.array([[1.0]]))


def weyl_fractional_problem(
    alpha: float, A: np.ndarray | None = None, kernel_len: int = 160
) -> Symbol:
    """Delta_W^alpha u = f as a one-term symbol with kernel c^(m-alpha)."""
    if A is None:
        A = np.array([[1.0]])
    A = np.asarray(A, dtype=complex)
    m_state = A.shape[0]
    mo = math.ceil(alpha)
    term = WeylTerm(cesaro(mo - alpha, kernel_len), mo, 0, A)
    return WeylFractionalSymbol(
        m_state, (term,), np.zeros((m_state, m_state)), 0, np.eye(m_state)
    )


def two_term_weyl_symbol(k0: int = 3, k1: int = 1, k2: int = 2) -> Symbol:
    """Two fractional terms plus a pure shift term.

    M(z) = (z^k2 - 2 z^(k2+1) + z^(k2+2)) F_a2(z) A2
         + (z^(k1+1) - z^k1) F_a1(z) A1 + z^k0 A0,
    with A0 = A1 = I and kernels on 0..128; used by the injectivity probe.
    """
    a1 = cesaro(0.5, 128)
    a2 = cesaro(0.7, 128)
    eye = np.eye(1)
    terms = (
        WeylTerm(a2, 2, k2, eye * 0.05),
        WeylTerm(a1, 1, k1, eye),
    )
    return WeylFractionalSymbol(1, terms, eye, k0, eye)


FIXTURES = {
    "probability": "probability fixture: inversion vs the binomial-tail law",
    "binomial": "binomial fixture: inversion vs the multinomial expansion",
    "diagonal": "diagonal sequence forward transform vs closed form",
    "geometric": "geometric data table",
    "gaussian": "gaussian-decay data table",
}
