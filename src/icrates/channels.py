"""Channel representations, structural tests, couplings, and file I/O.

File formats (JSON, human-editable):

- discrete channel::

    {"type": "discrete", "nx1": 2, "nx2": 2, "ny1": 2, "ny2": 2,
     "p": [[[[...]]]]}          # nested [x1][x2][y1][y2]

- scalar Gaussian channel in standard form (unit noise variances)::

    {"type": "gaussian", "a": 0.5, "b": 0.4, "p1": 1.0, "p2": 1.0}

- virtual coupling (a discrete channel jointly distributed with a pair of
  product side channels)::

    {"type": "coupling", "base": {...discrete...}, "ny1t": 2, "ny2t": 2,
     "q": [[[[[[...]]]]]]}      # nested [x1][x2][y1][y2][yt1][yt2]
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IcError,
    ParseError,
    SizeLimitError,
    ValidationError,
)
from .probtensor import (
    MASS_TOL,
    SIZE_LIMIT,
    ProbTensor,
    require_valid,
)

#: Canonical axis names used everywhere in the package.
W1, W2, X1, X2, Y1, Y2 = "W1", "W2", "X1", "X2", "Y1", "Y2"
YT1, YT2 = "Yt1", "Yt2"


@dataclass(frozen=True)
class DiscreteIC:
    """Two-user discrete memoryless interference channel ``p(y1,y2|x1,x2)``."""

    law: ProbTensor  # axes (X1, X2, Y1, Y2), conditional on (X1, X2)

    def __post_init__(self) -> None:
        if self.law.names != (X1, X2, Y1, Y2):
            raise DimensionMismatchError(
                "channel law must have axes (X1, X2, Y1, Y2)", names=list(self.law.names)
            )
        try:
            require_valid(self.law, conditioning=(X1, X2))
        except IcError as e:
            raise ValidationError(f"channel law invalid: {e}") from e

    @classmethod
    def from_array(cls, p: np.ndarray) -> "DiscreteIC":
        return cls(ProbTensor.from_array(np.asarray(p, dtype=np.float64), (X1, X2, Y1, Y2)))

    @property
    def nx1(self) -> int:
        return self.law.cards[0]

    @property
    def nx2(self) -> int:
        return self.law.cards[1]

    @property
    def ny1(self) -> int:
        return self.law.cards[2]

    @property
    def ny2(self) -> int:
        return self.law.cards[3]

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return self.law.cards  # type: ignore[return-value]

    def to_json_dict(self) -> dict:
        return {
            "type": "discrete",
            "nx1": self.nx1,
            "nx2": self.nx2,
            "ny1": self.ny1,
            "ny2": self.ny2,
            "p": self.law.values.tolist(),
        }


@dataclass(frozen=True)
class GaussianIC:
    """Scalar Gaussian interference channel in standard form.

    ``Y1 = X1 + a*X2 + Z1`` and ``Y2 = b*X1 + X2 + Z2`` with unit-variance
    noises and input power budgets ``p1``, ``p2``.
    """

    a: float
    b: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "p1", "p2"):
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise ValidationError("gaussian parameter must be finite", field=name, value=v)
        if self.p1 <= 0 or self.p2 <= 0:
            raise ValidationError("powers must be > 0", p1=self.p1, p2=self.p2)

    def to_json_dict(self) -> dict:
        return {"type": "gaussian", "a": self.a, "b": self.b, "p1": self.p1, "p2": self.p2}


@dataclass(frozen=True)
class GaussianVirtualParams:
    """Noise scales and noise correlations of the Gaussian side channels."""

    eta1: float
    eta2: float
    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        for name in ("eta1", "eta2", "rho1", "rho2"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValidationError("virtual parameter must be finite", field=name)
        if abs(self.rho1) > 1.0 or abs(self.rho2) > 1.0:
            raise ValidationError(
                "correlations must lie in [-1, 1]", rho1=self.rho1, rho2=self.rho2
            )


@dataclass(frozen=True)
class VirtualCoupling:
    """A channel jointly distributed with a pair of product side channels.

    ``joint_law`` is ``q(y1, y2, yt1, yt2 | x1, x2)`` with axes
    ``(X1, X2, Y1, Y2, Yt1, Yt2)``.  Marginalizing out ``(Yt1, Yt2)`` must
    reproduce ``base.law``; marginalizing out ``(Y1, Y2)`` must factor as
    ``pt1(yt1|x1) * pt2(yt2|x2)``.
    """

    base: DiscreteIC
    joint_law: ProbTensor

    def __post_init__(self) -> None:
        jl = self.joint_law
        if jl.names != (X1, X2, Y1, Y2, YT1, YT2):
            raise DimensionMismatchError(
                "coupling law must have axes (X1, X2, Y1, Y2, Yt1, Yt2)",
                names=list(jl.names),
            )
        if jl.cards[:4] != self.base.law.cards:
            raise DimensionMismatchError(
                "coupling does not match base channel alphabet",
                coupling=jl.cards[:4],
                base=self.base.law.cards,
            )
        try:
            require_valid(jl, conditioning=(X1, X2))
        except IcError as e:
            raise ValidationError(f"coupling law invalid: {e}") from e
        q = jl.values
        base_marg = q.sum(axis=(4, 5))
        if not np.allclose(base_marg, self.base.law.values, atol=MASS_TOL, rtol=0.0):
            raise ValidationError(
                "coupling marginal over side outputs does not reproduce the base law",
                max_error=float(np.abs(base_marg - self.base.law.values).max()),
            )
        pt1, pt2 = self.virtual_marginals()
        virt = q.sum(axis=(2, 3))
        product = np.einsum("iu,jv->ijuv", pt1, pt2)
        if not np.allclose(virt, product, atol=MASS_TOL, rtol=0.0):
            raise ValidationError(
                "side-output marginal does not factor as pt1(yt1|x1)*pt2(yt2|x2)",
                max_error=float(np.abs(virt - product).max()),
            )

    @property
    def nyt1(self) -> int:
        return self.joint_law.cards[4]

    @property
    def nyt2(self) -> int:
        return self.joint_law.cards[5]

    def virtual_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``pt1[x1, yt1]`` and ``pt2[x2, yt2]``.

        The factorization invariant makes pt1 identical across x2 columns
        (and pt2 across x1 rows), so slice 0 of the other input suffices.
        """
        q = self.joint_law.values
        pt1 = q[:, 0].sum(axis=(1, 2, 4))
        pt2 = q[0].sum(axis=(1, 2, 3))
        return pt1, pt2

    def to_json_dict(self) -> dict:
        return {
            "type": "coupling",
            "base": self.base.to_json_dict(),
            "ny1t": self.nyt1,
            "ny2t": self.nyt2,
            "q": self.joint_law.values.tolist(),
        }


class OneSided(enum.Enum):
    NONE = "none"
    SIDE_A = "side_a"
    SIDE_B = "side_b"


#: Total-variation slack of the one-sidedness test.
ONE_SIDED_TOL = 1e-9


def _factorizes(law: np.ndarray, free_output: int) -> bool:
    """True when the law equals p(own|x1,x2) * p(other|x_own-input) within
    :data:`ONE_SIDED_TOL`.

    ``free_output = 1`` tests ``p(y1,y2|x1,x2) == p(y1|x1,x2) p(y2|x2)`` (the
    Y2 side sees no cross input); ``free_output = 0`` tests the mirror.
    Checks are per-(x1,x2)-slice total-variation tests of (i) conditional
    independence of the two outputs and (ii) invariance of the decoupled
    output's marginal in the cross input.
    """
    m1 = law.sum(axis=3)  # p(y1|x1,x2)
    m2 = law.sum(axis=2)  # p(y2|x1,x2)
    product = np.einsum("ijk,ijl->ijkl", m1, m2)
    ci_dev = 0.5 * np.abs(law - product).sum(axis=(2, 3)).max()
    if free_output == 1:
        cross_dev = 0.5 * np.abs(m2 - m2[:1, :, :]).sum(axis=2).max()
    else:
        cross_dev = 0.5 * np.abs(m1 - m1[:, :1, :]).sum(axis=2).max()
    return bool(ci_dev <= ONE_SIDED_TOL and cross_dev <= ONE_SIDED_TOL)


def is_one_sided(ch: DiscreteIC) -> OneSided:
    """Structural one-sidedness test (exact factorization, not a search).

    ``SIDE_A`` means receiver 2 is interference-free
    (``p = p(y1|x1,x2) p(y2|x2)``); ``SIDE_B`` is the mirror.  When both hold
    (fully product channels) ``SIDE_A`` is reported.
    """
    if _factorizes(ch.law.values, free_output=1):
        return OneSided.SIDE_A
    if _factorizes(ch.law.values, free_output=0):
        return OneSided.SIDE_B
    return OneSided.NONE


def output_marginals(ch: DiscreteIC) -> tuple[ProbTensor, ProbTensor]:
    """Per-receiver conditional marginals ``p(y1|x1,x2)`` and ``p(y2|x1,x2)``."""
    m1 = ch.law.values.sum(axis=3)
    m2 = ch.law.values.sum(axis=2)
    return (
        ProbTensor((X1, X2, Y1), m1),
        ProbTensor((X1, X2, Y2), m2),
    )


@dataclass(frozen=True)
class VirtualFeasibility:
    """Outcome of the Gaussian side-channel noise-budget check."""

    feasible: bool
    margin1: float  # sqrt(1 - rho2^2) - |b * eta1|
    margin2: float  # sqrt(1 - rho1^2) - |a * eta2|


def gaussian_virtual(g: GaussianIC, v: GaussianVirtualParams) -> VirtualFeasibility:
    """Check the noise-budget inequalities for a Gaussian side-channel pair."""
    margin1 = math.sqrt(max(0.0, 1.0 - v.rho2**2)) - abs(g.b * v.eta1)
    margin2 = math.sqrt(max(0.0, 1.0 - v.rho1**2)) - abs(g.a * v.eta2)
    return VirtualFeasibility(feasible=margin1 >= 0.0 and margin2 >= 0.0,
                              margin1=margin1, margin2=margin2)


def random_channel(seed: int, sizes: Sequence[int]) -> DiscreteIC:
    """Seeded random channel; slices are uniform-Dirichlet over outputs."""
    nx1, nx2, ny1, ny2 = (int(s) for s in sizes)
    if min(nx1, nx2, ny1, ny2) < 1:
        raise DimensionMismatchError("sizes must be >= 1", sizes=tuple(sizes))
    if nx1 * nx2 * ny1 * ny2 > SIZE_LIMIT:
        raise SizeLimitError("channel too large", sizes=tuple(sizes), limit=SIZE_LIMIT)
    rng = np.random.default_rng(np.random.SeedSequence([0xC4A22E1, int(seed)]))
    raw = rng.gamma(1.0, size=(nx1, nx2, ny1, ny2))
    p = raw / raw.sum(axis=(2, 3), keepdims=True)
    return DiscreteIC.from_array(p)


def random_coupling(base: DiscreteIC, nyt1: int, nyt2: int, seed: int) -> VirtualCoupling:
    """Random coupling with side outputs conditionally independent given inputs.

    ``q = p(y1,y2|x1,x2) * t1(yt1|x1) * t2(yt2|x2)`` satisfies both coupling
    invariants for any base channel.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xC0B17, int(seed)]))
    t1 = rng.gamma(1.0, size=(base.nx1, nyt1))
    t1 /= t1.sum(axis=1, keepdims=True)
    t2 = rng.gamma(1.0, size=(base.nx2, nyt2))
    t2 /= t2.sum(axis=1, keepdims=True)
    q = np.einsum("ijkl,iu,jv->ijkluv", base.law.values, t1, t2)
    return VirtualCoupling(base, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))


def degenerate_coupling(base: DiscreteIC) -> VirtualCoupling:
    """Coupling whose side outputs are constants (carry no information)."""
    q = base.law.values[:, :, :, :, np.newaxis, np.newaxis]
    return VirtualCoupling(base, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))


def revealing_coupling(base: DiscreteIC) -> VirtualCoupling:
    """Coupling whose side outputs reveal the inputs noiselessly."""
    e1 = np.eye(base.nx1)
    e2 = np.eye(base.nx2)
    q = np.einsum("ijkl,iu,jv->ijkluv", base.law.values, e1, e2)
    return VirtualCoupling(base, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _not_json(token: str) -> None:
    raise ValueError(f"{token} is not a JSON number")


def _load_json(path: str | os.PathLike) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_not_json)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read channel file: {e}", path=str(path)) from e
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("channel file must be a JSON object with a 'type' field",
                         path=str(path))
    return doc


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _size(doc: dict, key: str) -> int:
    """A size field, which must be a JSON integer."""
    if isinstance(doc[key], bool) or not isinstance(doc[key], int):
        raise ParseError("size must be a JSON integer", field=key, value=doc[key])
    return doc[key]


def _number(doc: dict, key: str) -> float:
    """A parameter field, which must be a JSON number."""
    if not _is_number(doc[key]):
        raise ParseError("parameter must be a JSON number", field=key, value=doc[key])
    return float(doc[key])


def _numbers(doc: dict, key: str) -> np.ndarray:
    """A probability array field, which must hold JSON numbers only."""
    arr = np.asarray(doc[key], dtype=object)
    if not all(map(_is_number, arr.flat)):
        raise ParseError("probability array must hold JSON numbers only", field=key)
    return arr.astype(np.float64)


def _discrete_from_dict(doc: dict) -> DiscreteIC:
    try:
        sizes = tuple(_size(doc, k) for k in ("nx1", "nx2", "ny1", "ny2"))
        p = _numbers(doc, "p")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed discrete channel: {e}") from e
    if p.shape != sizes:
        raise ParseError("probability array shape disagrees with declared sizes",
                         declared=sizes, actual=p.shape)
    return DiscreteIC.from_array(p)


def load_channel(path: str | os.PathLike) -> DiscreteIC | GaussianIC:
    """Load and validate a channel file; raises on any malformed content."""
    doc = _load_json(path)
    kind = doc["type"]
    if kind == "discrete":
        return _discrete_from_dict(doc)
    if kind == "gaussian":
        try:
            return GaussianIC(*(_number(doc, k) for k in ("a", "b", "p1", "p2")))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed gaussian channel: {e}") from e
    raise ParseError("unknown channel type", type=kind)


def load_coupling(path: str | os.PathLike) -> VirtualCoupling:
    doc = _load_json(path)
    if doc["type"] != "coupling":
        raise ParseError("expected a coupling file", type=doc["type"])
    try:
        base = _discrete_from_dict(doc["base"])
        nyt1, nyt2 = _size(doc, "ny1t"), _size(doc, "ny2t")
        q = _numbers(doc, "q")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed coupling: {e}") from e
    expected = base.law.cards + (nyt1, nyt2)
    if q.shape != expected:
        raise ParseError("coupling array shape disagrees with declared sizes",
                         declared=expected, actual=q.shape)
    return VirtualCoupling(base, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))


def save_channel(ch: DiscreteIC | GaussianIC, path: str | os.PathLike) -> None:
    from .serialize import stable_json_dumps

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(stable_json_dumps(ch.to_json_dict()))


def save_coupling(vc: VirtualCoupling, path: str | os.PathLike) -> None:
    from .serialize import stable_json_dumps

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(stable_json_dumps(vc.to_json_dict()))


def channel_digest(ch: DiscreteIC | GaussianIC) -> str:
    """Short stable digest of a channel's canonical JSON form."""
    from .serialize import stable_json_dumps

    payload = stable_json_dumps(ch.to_json_dict()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]
