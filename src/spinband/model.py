"""Model definitions: mixture of interaction orders, run parameters, drift polynomial.

The interaction mixture is nu(r) = sum_{p=2}^m c_p r^p with c_p = b_p^2 >= 0.
Everything downstream (two-time solvers, FDT analysis, finite-N sampler) is
driven by nu, the inverse temperature beta, the conditioning data
(E_star, G_star) at overlap q_star, the initial overlap q_o, and the
confinement choice (hard sphere, or soft double-well with parameters L, k, phi).

Conditioning the disorder on a critical value/gradient pair at the special
point tilts the field by a deterministic drift whose radial profile is the
polynomial v(r) built here (``vstar_build``).  Its two defining properties,
v(q_star^2) = E_star and v'(q_star^2) = G_star, are what the rest of the
package relies on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HardConstraint,
    PureInconsistent,
    SingularMatrix,
    ValidationError,
)

__all__ = [
    "MixingFunction",
    "Confinement",
    "ModelParams",
    "DriftPolynomial",
    "vstar_build",
    "validate",
    "f_prime",
]

def _falling(p: int, d: int) -> float:
    out = 1.0
    for j in range(d):
        out *= p - j
    return out


@dataclass(frozen=True)
class MixingFunction:
    """Mixture nu(r) = sum_{p=2}^m coeffs_sq[p-2] * r^p.

    Parameters
    ----------
    coeffs_sq : tuple of float
        Squared interaction weights (b_p^2) for p = 2, ..., m in order.
        All entries must be >= 0 and, unless every entry is zero, the last
        entry must be positive (it declares the top degree).  The all-zero
        mixture is admitted as an explicit degenerate case: it corresponds
        to free (noise-only) dynamics and is used to exercise solver
        reductions, see the test suite.
    """

    coeffs_sq: tuple

    def __init__(self, coeffs_sq):
        coeffs_sq = tuple(float(c) for c in coeffs_sq)
        if len(coeffs_sq) < 1:
            raise ValidationError("need at least the p=2 coefficient")
        if any(c < 0 for c in coeffs_sq):
            raise ValidationError("squared coefficients must be >= 0")
        if any(c > 0 for c in coeffs_sq) and coeffs_sq[-1] <= 0:
            raise ValidationError(
                "top-degree coefficient must be positive (trim trailing zeros)"
            )
        object.__setattr__(self, "coeffs_sq", coeffs_sq)

    # -- structure ----------------------------------------------------------

    @property
    def m(self) -> int:
        """Declared top interaction order."""
        return len(self.coeffs_sq) + 1

    @property
    def active_orders(self) -> tuple:
        """Orders p with b_p^2 > 0, ascending."""
        return tuple(p for p, c in self._terms())

    def _terms(self):
        return [(p + 2, c) for p, c in enumerate(self.coeffs_sq) if c != 0.0]

    def is_zero(self) -> bool:
        return not self._terms()

    def is_pure(self) -> bool:
        """True when exactly one interaction order carries weight."""
        return len(self._terms()) == 1

    def pure_order(self) -> int:
        terms = self._terms()
        if len(terms) != 1:
            raise ValidationError("mixture is not pure")
        return terms[0][0]

    def weight(self, p: int) -> float:
        """b_p (positive square root of the stored squared coefficient)."""
        if p < 2 or p - 2 >= len(self.coeffs_sq):
            return 0.0
        return math.sqrt(self.coeffs_sq[p - 2])

    # -- evaluation -----------------------------------------------------------

    def nu(self, r, order: int = 0):
        """Evaluate nu^(order)(r) for order in {0, 1, 2, 3} (Horner form).

        Accepts scalars (evaluated in Python floats, which round exactly as
        the array path does) or numpy arrays.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError("derivative order must be in 0..3")
        # Coefficient of r^(p-order) is c_p * p! / (p-order)!.
        p_low = max(2, order)
        scalar = np.ndim(r) == 0
        acc = 0.0 if scalar else np.zeros_like(np.asarray(r, dtype=float))
        for p in range(self.m, p_low - 1, -1):
            acc = acc * r + self.coeffs_sq[p - 2] * _falling(p, order)
        for _ in range(p_low - order):
            acc = acc * r
        return float(acc) if scalar else acc

    def psi(self, r):
        """psi(r) = r nu''(r) + nu'(r)."""
        return r * self.nu(r, 2) + self.nu(r, 1)

    def theta(self, q):
        """theta(q) = nu(1) - nu(q) - nu'(q) (1 - q); one-sided energy gap."""
        return self.nu(1.0) - self.nu(q) - self.nu(q, 1) * (1.0 - q)

    def g(self, x):
        """Landscape factor g(x) = nu''(x) (1 - x)^2."""
        return self.nu(x, 2) * (1.0 - x) ** 2


@dataclass(frozen=True)
class Confinement:
    """Radial confinement: hard sphere or soft well f(r) = L(r-1)^2 + (phi/4k) r^{2k}.

    Only the soft well has L, k and phi; the hard sphere has none.  A soft
    ``phi=None`` means "canonical": validation resolves it to
    1 + 2 beta q_o v'(q_o), the unique choice that starts the norm process
    at equilibrium.
    """

    kind: str  # "hard" | "soft"
    L: float | None = None
    k: int | None = None
    phi: float | None = None

    @staticmethod
    def hard() -> "Confinement":
        return Confinement("hard")

    @staticmethod
    def soft(L: float, k: int = 1, phi: float | None = None) -> "Confinement":
        return Confinement("soft", float(L), int(k), phi)

    @property
    def is_hard(self) -> bool:
        return self.kind == "hard"


@dataclass(frozen=True)
class ModelParams:
    """Run parameters for a conditioned dynamics problem.

    Attributes
    ----------
    beta : float
        Inverse temperature, > 0.
    q_star : float
        Overlap radius of the conditioned point, in (0, 1].
    q_o : float
        Initial overlap with the conditioned point, |q_o| <= q_star.
    E_star, G_star : float
        Conditioned intensive value and radial derivative at the special point.
    confinement : Confinement
    """

    beta: float
    q_star: float
    q_o: float
    E_star: float
    G_star: float
    confinement: Confinement


@dataclass(frozen=True)
class DriftPolynomial:
    """Radial drift profile v(r) = sum_p b_p^2 <v_p, (E, G)> r^p.

    ``coeffs[p]`` holds the coefficient of r^p (index = power, entries below
    p=2 are zero).
    """

    coeffs: tuple

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def value(self, r):
        scalar = np.ndim(r) == 0
        acc = 0.0 if scalar else np.zeros_like(np.asarray(r, dtype=float))
        for c in self.coeffs[::-1]:
            acc = acc * r + c
        return float(acc) if scalar else acc

    def derivative(self, r):
        """v'(r); satisfies v'(q_star^2) = G by construction."""
        n = len(self.coeffs)
        scalar = np.ndim(r) == 0
        acc = 0.0 if scalar else np.zeros_like(np.asarray(r, dtype=float))
        for p in range(n - 1, 0, -1):
            acc = acc * r + p * self.coeffs[p]
        return float(acc) if scalar else acc


def _moment_matrix(nu: MixingFunction, q_star: float) -> np.ndarray:
    r = q_star * q_star
    return np.array(
        [
            [r * nu.nu(r), r * nu.nu(r, 1)],
            [r * nu.nu(r, 1), nu.psi(r)],
        ]
    )


def vstar_build(nu: MixingFunction, q_star: float, E: float, G: float) -> DriftPolynomial:
    """Build the drift polynomial for conditioning data (E, G) at q_star.

    Pure mixtures use the closed form v(r) = E q_star^{-2m} r^m and require
    G = m E / q_star^2 (raises PureInconsistent otherwise, relative 1e-12).
    Mixed ones solve the 2x2 moment system M v_p = (q_star^2, p) per order.

    Raises
    ------
    PureInconsistent, SingularMatrix
    """
    m_top = nu.m
    coeffs = [0.0] * (m_top + 1)
    if E == 0.0 and G == 0.0:
        # Linearity in (E, G): zero data gives the zero polynomial for any mixture.
        return DriftPolynomial(tuple(coeffs))
    if nu.is_zero():
        raise SingularMatrix("no interaction terms to condition on")
    if nu.is_pure():
        m = nu.pure_order()
        implied = m * E / (q_star * q_star)
        if abs(G - implied) > 1e-12 * max(1.0, abs(G), abs(implied)):
            raise PureInconsistent(
                f"pure order {m}: G={G!r} inconsistent with m E / q*^2 = {implied!r}"
            )
        coeffs[m] = E * q_star ** (-2 * m)
        return DriftPolynomial(tuple(coeffs))

    M = _moment_matrix(nu, q_star)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = max(abs(M).max() ** 2, 1e-300)
    if not np.isfinite(det) or abs(det) <= 1e-14 * scale:
        raise SingularMatrix(f"moment system singular (det={det!r})")
    eg = np.array([E, G])
    r2 = q_star * q_star
    for p in nu.active_orders:
        v_p = np.linalg.solve(M, np.array([r2, float(p)]))
        coeffs[p] = nu.coeffs_sq[p - 2] * float(v_p @ eg)
    return DriftPolynomial(tuple(coeffs))


def canonical_phi(params: ModelParams, nu: MixingFunction) -> float:
    """phi = 1 + 2 beta q_o v'(q_o): the equilibrium-start normalization."""
    v = vstar_build(nu, params.q_star, params.E_star, params.G_star)
    return 1.0 + 2.0 * params.beta * params.q_o * v.derivative(params.q_o)


def validate(params: ModelParams, nu: MixingFunction) -> ModelParams:
    """Check parameter consistency and return the params with phi resolved.

    Raises ValidationError / PureInconsistent as appropriate.  A soft
    confinement comes back with a concrete phi (the canonical one when none
    was given); a hard one has no phi and comes back unchanged.
    """
    if not params.beta >= 0:
        raise ValidationError("beta must be >= 0")
    if not (0.0 < params.q_star <= 1.0):
        raise ValidationError("q_star must lie in (0, 1]")
    if abs(params.q_o) > params.q_star + 1e-15:
        raise ValidationError("|q_o| must not exceed q_star")
    if nu.is_zero():
        if params.E_star != 0.0 or params.G_star != 0.0:
            raise ValidationError("zero mixture admits only E_star = G_star = 0")
    else:
        if not nu.nu(params.q_star ** 2, 1) > 0.0:
            raise ValidationError("nu'(q_star^2) must be positive")
    # Pure-consistency (raises PureInconsistent if violated).
    vstar_build(nu, params.q_star, params.E_star, params.G_star)

    conf = params.confinement
    if conf.is_hard:
        return params
    if conf.L is None or not conf.L > 0:
        raise ValidationError("soft confinement needs L > 0")
    if conf.k is None or conf.k < 1 or conf.k != int(conf.k):
        raise ValidationError("soft confinement needs integer k >= 1")
    if 4 * conf.k <= nu.m:
        raise ValidationError(
            f"confinement exponent too small: need 4k > m (k={conf.k}, m={nu.m})"
        )
    if conf.phi is None:
        conf = dataclasses.replace(conf, phi=canonical_phi(params, nu))
    return dataclasses.replace(params, confinement=conf)


def f_prime(params: ModelParams, r):
    """Derivative of the soft confinement: f'(r) = 2 L (r - 1) + (phi/2) r^{2k-1}.

    Raises HardConstraint when called under the hard-sphere constraint
    (there the Lagrange multiplier mu(s) replaces f'(K), see the solvers).
    """
    conf = params.confinement
    if conf.is_hard:
        raise HardConstraint("f' undefined for the hard constraint; use mu(s)")
    if conf.phi is None:
        raise ValidationError("confinement phi unresolved; run validate() first")
    return 2.0 * conf.L * (r - 1.0) + 0.5 * conf.phi * r ** (2 * conf.k - 1)
