"""Reference computations for the benchmark's output checks.

Everything here is written from the textbook definitions with numpy alone and
imports nothing from ``icrates``, so a check that compares program output with
these values compares two separate implementations.  All logarithms are base 2.

Marginals are taken by plain axis sums (the program aggregates by matrix
products), entropies use ``0 log 0 = 0``, and mutual information is the
entropy identity ``I(A;B|C) = H(AC) + H(BC) - H(C) - H(ABC)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Discrete information measures over batches of named-axis joints
# ---------------------------------------------------------------------------


def entropy_bits(joint: np.ndarray, names: Sequence[str], keep: set[str]) -> np.ndarray:
    """Entropy of the marginal on ``keep`` for each row of ``joint [B, ...]``."""
    axes = tuple(i + 1 for i, n in enumerate(names) if n not in keep)
    m = joint.sum(axis=axes) if axes else joint
    m = m.reshape(m.shape[0], -1)
    logs = np.zeros_like(m)
    np.log2(m, out=logs, where=m > 0.0)
    return -(m * logs).sum(axis=1)


def mi_bits(joint: np.ndarray, names: Sequence[str], a: Sequence[str],
            b: Sequence[str], given: Sequence[str] = ()) -> np.ndarray:
    """``I(A; B | C)`` for each row of a batch of joints."""
    sa, sb, sg = set(a), set(b), set(given)
    return (entropy_bits(joint, names, sa | sg) + entropy_bits(joint, names, sb | sg)
            - entropy_bits(joint, names, sg) - entropy_bits(joint, names, sa | sb | sg))


# ---------------------------------------------------------------------------
# Point-to-point capacity (Blahut 1972)
# ---------------------------------------------------------------------------


def _divergences(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``D(W(.|x) || q)`` in bits for every input row ``x``."""
    ratio = np.ones_like(w)
    np.divide(w, q[np.newaxis, :], out=ratio, where=w > 0.0)
    logs = np.zeros_like(w)
    np.log2(ratio, out=logs, where=w > 0.0)
    return (w * logs).sum(axis=1)


def blahut_arimoto(w: np.ndarray, max_iters: int = 20000, gap: float = 1e-11) -> tuple[float, float]:
    """Lower and upper capacity bounds of the channel ``w[x, y]`` in bits.

    The lower bound is the mutual information at the current input law; the
    upper bound is ``max_x D(W(.|x) || q)``, which bounds capacity for every
    output law ``q``.  Iterates until the two agree within ``gap``.
    """
    w = np.asarray(w, dtype=np.float64)
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    lower, upper = 0.0, math.inf
    for _ in range(max_iters):
        q = p @ w
        d = _divergences(w, q)
        lower = float(p @ d)
        upper = float(d.max())
        if upper - lower <= gap:
            break
        p = p * np.exp2(d)
        p /= p.sum()
    return lower, upper


# ---------------------------------------------------------------------------
# Scalar Gaussian interference channel, Y1 = X1 + a X2 + Z1, Y2 = b X1 + X2 + Z2
# ---------------------------------------------------------------------------


def gauss_cap(snr: float) -> float:
    return 0.5 * math.log2(1.0 + snr)


def gaussian_tin_rates(a: float, b: float, p1: float, p2: float) -> tuple[float, float]:
    """Rates when each receiver treats the other user's signal as noise."""
    return gauss_cap(p1 / (1.0 + a * a * p2)), gauss_cap(p2 / (1.0 + b * b * p1))


def sato_constraints(a: float, b: float, p1: float, p2: float) -> list[tuple[int, int, float]]:
    """Capacity region under strong interference, ``|a|, |b| >= 1`` (Sato 1981)."""
    sum_cap = min(gauss_cap(p1 + a * a * p2), gauss_cap(b * b * p1 + p2))
    return [(1, 0, gauss_cap(p1)), (0, 1, gauss_cap(p2)), (1, 1, sum_cap)]


def noisy_interference_margin(a: float, b: float, p1: float, p2: float) -> float:
    """Slack of ``|a|(b^2 P1 + 1) + |b|(a^2 P2 + 1) <= 1``; in regime iff >= 0."""
    return 1.0 - (abs(a) * (b * b * p1 + 1.0) + abs(b) * (a * a * p2 + 1.0))


def very_weak_margins(a: float, b: float, p1: float, p2: float) -> tuple[float, float]:
    """Slacks of ``a^2 <= 1/(b^2 P1 + 1)`` and ``b^2 <= 1/(a^2 P2 + 1)``."""
    return 1.0 / (b * b * p1 + 1.0) - a * a, 1.0 / (a * a * p2 + 1.0) - b * b


# ---------------------------------------------------------------------------
# Two-dimensional rate polytopes
# ---------------------------------------------------------------------------


def angle_directions(theta_deg: np.ndarray) -> np.ndarray:
    rad = np.radians(np.asarray(theta_deg, dtype=np.float64))
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


def polytope_support(constraints: Sequence[tuple[int, int, float]], theta_deg: np.ndarray) -> np.ndarray:
    """Support function of ``{R >= 0 : c1 R1 + c2 R2 <= bound}`` at each angle.

    Vertices are enumerated as every feasible intersection of two boundary
    lines (including the axes); the support is the best vertex per angle.
    """
    lines = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]  # R1 = 0, R2 = 0
    lines += [(float(c1), float(c2), float(v)) for c1, c2, v in constraints]
    verts = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1, v1 = lines[i]
            a2, b2, v2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0.0:
                continue
            r1 = (v1 * b2 - v2 * b1) / det
            r2 = (a1 * v2 - a2 * v1) / det
            ok = r1 >= -1e-12 and r2 >= -1e-12
            ok = ok and all(c1 * r1 + c2 * r2 <= v + 1e-12 for c1, c2, v in constraints)
            if ok:
                verts.append((r1, r2))
    return (np.array(verts) @ angle_directions(theta_deg).T).max(axis=0)


# ---------------------------------------------------------------------------
# Simplex grids
# ---------------------------------------------------------------------------


def _integer_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    return [(head, *rest) for head in range(total, -1, -1)
            for rest in _integer_compositions(total - head, parts - 1)]


def compositions(steps: int, k: int) -> np.ndarray:
    """All points of the ``k``-simplex whose coordinates are multiples of ``1/steps``."""
    return np.array(_integer_compositions(steps, k), dtype=np.float64) / float(steps)


def composition_count(steps: int, k: int) -> int:
    return math.comb(steps + k - 1, k - 1)


def grid_points(blocks: Sequence[tuple[str, int, int, int]], limit: int,
                rng: np.random.Generator | None) -> dict[str, np.ndarray]:
    """Points of a product of simplex grids, as ``{name: [N, n_slices, k]}``.

    ``blocks`` lists ``(name, n_slices, k, steps)``.  Every point is taken
    when the grid has at most ``limit`` points; otherwise ``limit`` points
    are drawn uniformly with ``rng`` (which may be ``None`` when the grid is
    known to fit).
    """
    tables = []
    for name, n_slices, k, steps in blocks:
        table = compositions(steps, k)
        tables += [(name, s, table) for s in range(n_slices)]
    radices = [t.shape[0] for _, _, t in tables]
    total = math.prod(radices)
    if total <= limit:
        idx = np.unravel_index(np.arange(total), radices)
    else:
        idx = [rng.integers(0, r, size=limit) for r in radices]
    n = idx[0].size
    out = {name: np.empty((n, n_slices, k)) for name, n_slices, k, _ in blocks}
    for axis, (name, s, table) in enumerate(tables):
        out[name][:, s, :] = table[idx[axis]]
    return out
