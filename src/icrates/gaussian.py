"""Closed-form information algebra for jointly Gaussian variables.

Scalar variables are represented as linear combinations of a shared basis of
independent unit-variance Gaussians, so covariances are Gram matrices of
coefficient rows and every (conditional) mutual information reduces to
log-determinants:

    I(A; B | C) = 0.5 * log2( det S[AC] * det S[BC] / (det S[C] * det S[ABC]) )

Each log-determinant comes from one rank-revealing Gram-Schmidt, which skips
dependent rows (zero vectors and exact combinations, as extreme power splits
produce); mutual information depends only on the generated sigma-algebra, so
skipping them is exact.  Coefficient rows may carry leading batch axes
(``[..., 6]``); a single system is the 0-d case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .channels import GaussianIC, GaussianVirtualParams
from .errors import SizeLimitError, UnknownAxisError
from .probtensor import SIZE_LIMIT

_RANK_TOL = 1e-10
#: Points of the noisy-interference certificate scan over ``rho1``.
CERTIFICATE_SEARCH_POINTS = 256


@dataclass(frozen=True)
class GaussSystem:
    """Named scalar Gaussian variables over one independent standard basis
    (coefficient rows ``[..., n_basis]``; leading axes index a batch)."""

    coeffs: Mapping[str, np.ndarray]

    def vector(self, name: str) -> np.ndarray:
        try:
            return np.asarray(self.coeffs[name], dtype=np.float64)
        except KeyError:
            raise UnknownAxisError("no such variable", axis=name,
                                   have=sorted(self.coeffs)) from None

    def _logdet(self, names: Iterable[str]) -> np.ndarray | float:
        """Log-det of the Gram matrix of a maximal independent subset: greedy
        Gram-Schmidt in name order keeps a row whose residual norm exceeds
        ``_RANK_TOL`` times its own, and adds ``2 log(residual norm)``."""
        total: np.ndarray | float = 0.0
        basis: list[np.ndarray] = []
        for name in names:
            row = self.vector(name)
            v = row
            for q in basis:
                v = v - _dot(v, q)[..., np.newaxis] * q
            norm = np.sqrt(_dot(v, v))
            keep = norm > _RANK_TOL * np.maximum(1.0, np.sqrt(_dot(row, row)))
            norm = np.where(keep, norm, 1.0)
            basis.append(np.where(keep[..., np.newaxis], v / norm[..., np.newaxis], 0.0))
            total = total + 2.0 * np.log(norm)
        return total

    def mi_bits(
        self,
        target: Iterable[str],
        second: Iterable[str],
        given: Iterable[str] = (),
    ) -> np.ndarray:
        t, s, g = tuple(target), tuple(second), tuple(given)
        value = 0.5 / math.log(2.0) * (
            self._logdet(t + g) + self._logdet(s + g)
            - self._logdet(g) - self._logdet(t + s + g)
        )
        return np.maximum(value, 0.0)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Last-axis inner product in a fixed order, so batches round like scalars."""
    return sum(u[..., k] * v[..., k] for k in range(u.shape[-1]))


def half_log2(x: float) -> float:
    return 0.5 * math.log2(x)


def tin_rates(g: GaussianIC) -> tuple[float, float]:
    """Per-user rates when each receiver absorbs the cross signal as noise."""
    r1 = half_log2(1.0 + g.p1 / (1.0 + g.a**2 * g.p2))
    r2 = half_log2(1.0 + g.p2 / (1.0 + g.b**2 * g.p1))
    return r1, r2


def split_system(g: GaussianIC, lam1: np.ndarray | float, lam2: np.ndarray | float) -> GaussSystem:
    """Gaussian inputs with a common/private power split.

    ``W_i`` carries power ``lam_i * P_i`` (the common layer); the private
    remainder ``(1 - lam_i) P_i`` rides on top.  ``lam1`` and ``lam2``
    broadcast against each other, giving one system per element.  Basis
    order: (S1, V1, S2, V2, Z1, Z2).
    """
    lam1, lam2 = np.broadcast_arrays(lam1, lam2)
    if 36 * lam1.size > SIZE_LIMIT:  # one dense [systems, 6 variables, 6 basis] tensor
        raise SizeLimitError("power-split grid too large", systems=lam1.size, limit=SIZE_LIMIT // 36)
    s1 = np.sqrt(np.maximum(0.0, (1.0 - lam1) * g.p1))
    v1 = np.sqrt(np.maximum(0.0, lam1 * g.p1))
    s2 = np.sqrt(np.maximum(0.0, (1.0 - lam2) * g.p2))
    v2 = np.sqrt(np.maximum(0.0, lam2 * g.p2))
    o = np.zeros_like(s1)
    x1 = np.stack([s1, v1, o, o, o, o], axis=-1)
    w1 = np.stack([o, v1, o, o, o, o], axis=-1)
    x2 = np.stack([o, o, s2, v2, o, o], axis=-1)
    w2 = np.stack([o, o, o, v2, o, o], axis=-1)
    z1, z2 = np.eye(6)[4:]  # the noise rows are the same in every system
    y1 = x1 + g.a * x2 + z1
    y2 = g.b * x1 + x2 + z2
    return GaussSystem({"X1": x1, "W1": w1, "X2": x2, "W2": w2, "Y1": y1, "Y2": y2})


# ---------------------------------------------------------------------------
# Regime conditions in closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianVeryWeakReport:
    """Gaussian very-weak-interference test with raw-unit margins."""

    in_regime: bool
    margin1: float  # 1/(b^2 P1 + 1) - a^2
    margin2: float  # 1/(a^2 P2 + 1) - b^2


def very_weak_gaussian(g: GaussianIC) -> GaussianVeryWeakReport:
    m1 = 1.0 / (g.b**2 * g.p1 + 1.0) - g.a**2
    m2 = 1.0 / (g.a**2 * g.p2 + 1.0) - g.b**2
    return GaussianVeryWeakReport(in_regime=(m1 >= 0.0 and m2 >= 0.0),
                                  margin1=m1, margin2=m2)


@dataclass(frozen=True)
class GaussianNoisyReport:
    """Gaussian noisy-interference test with a side-channel certificate.

    ``margin`` is the slack of the closed-form condition
    ``|a|(b^2 P1 + 1) + |b|(a^2 P2 + 1) <= 1``.  ``certificate`` carries side
    channel parameters that satisfy both the noise-budget inequalities and
    the alignment equalities ``eta1*rho1 = a^2 P2 + 1`` and
    ``eta2*rho2 = b^2 P1 + 1`` (so the side outputs are conditionally
    independent of the own input given the true output at Gaussian inputs).
    ``search_feasible`` reports whether an independent scan over ``rho1``
    (``search_points`` values, each tested at its smallest admissible
    ``rho2``) also found such a certificate.
    """

    in_regime: bool
    margin: float
    certificate: GaussianVirtualParams | None
    search_feasible: bool


def _alignment_targets(g: GaussianIC) -> tuple[float, float]:
    return g.a**2 * g.p2 + 1.0, g.b**2 * g.p1 + 1.0


def _certificate_ok(g: GaussianIC, rho1: float, rho2: float) -> GaussianVirtualParams | None:
    k1, k2 = _alignment_targets(g)
    if rho1 <= 0.0 or rho2 <= 0.0:
        return None
    eta1 = k1 / rho1
    eta2 = k2 / rho2
    ok1 = abs(g.b * eta1) <= math.sqrt(max(0.0, 1.0 - rho2**2)) + 1e-15
    ok2 = abs(g.a * eta2) <= math.sqrt(max(0.0, 1.0 - rho1**2)) + 1e-15
    if ok1 and ok2:
        return GaussianVirtualParams(eta1=eta1, eta2=eta2, rho1=rho1, rho2=rho2)
    return None


def _noisy_margin(g: GaussianIC) -> float:
    k1, k2 = _alignment_targets(g)
    return 1.0 - (abs(g.b) * k1 + abs(g.a) * k2)


def noisy_gaussian(g: GaussianIC, search_points: int = CERTIFICATE_SEARCH_POINTS) -> GaussianNoisyReport:
    k1, k2 = _alignment_targets(g)
    margin = _noisy_margin(g)
    in_regime = margin >= 0.0

    certificate: GaussianVirtualParams | None = None
    if in_regime:
        # Constructive choice: rho1^2 may sit anywhere in
        # [|b| k1, 1 - |a| k2]; take the midpoint.
        rho1 = math.sqrt((abs(g.b) * k1 + 1.0 - abs(g.a) * k2) / 2.0)
        rho2 = math.sqrt(max(0.0, 1.0 - rho1**2))
        certificate = _certificate_ok(g, rho1, rho2)

    # Independent cross-check: scan rho1 for a correlation pair that admits
    # aligned side channels within the noise budget.  At each rho1 the
    # second budget inequality is a lower bound on rho2, and the first only
    # gets harder as rho2 grows, so testing the first at the smallest
    # admissible rho2 is exact for that rho1.
    r1 = np.linspace(1.0 / search_points, 1.0, search_points)
    r2 = abs(g.a) * k2 / (np.sqrt(1.0 - r1**2) + 1e-15)
    ok = (r2 <= 1.0) & (
        abs(g.b) * k1 / r1 <= np.sqrt(1.0 - np.minimum(r2, 1.0) ** 2) + 1e-15
    )
    search_feasible = bool(ok.any())

    return GaussianNoisyReport(in_regime=in_regime, margin=margin,
                               certificate=certificate,
                               search_feasible=search_feasible)


def noisy_sum_capacity(g: GaussianIC) -> float | None:
    """Exact sum capacity when the noisy-interference condition holds.

    Returns ``None`` outside the regime (the value would then only be an
    achievable rate, not a capacity).
    """
    if _noisy_margin(g) < 0.0:
        return None
    r1, r2 = tin_rates(g)
    return r1 + r2
