"""Exact finite-probability kernels over named dense tensors.

Conventions used throughout the package:

- all logarithms are base 2, every information quantity is in bits per
  channel use;
- ``0 * log 0 := 0``;
- mutual information is computed through entropies of sub-marginals
  (``I(T;S|G) = H(TG) + H(SG) - H(G) - H(TSG)``) so no ratio of a positive
  mass by a zero mass is ever formed;
- tensors are 64-bit floats, dense, and immutable after construction.

A tensor is *unconditional* when its values sum to one over all axes, and
*conditional* when every slice obtained by fixing the conditioning axes sums
to one.  The normalization tolerance is ``MASS_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidQueryError,
    NegativeMassError,
    OverlappingSetsError,
    SizeLimitError,
    SliceNormalizationError,
    UnknownAxisError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from .channels import DiscreteIC
    from .regions import AuxInputDist

#: Hard cap on the product of axis cardinalities for a dense tensor.
SIZE_LIMIT = 10_000_000

#: Tolerance for "sums to one" checks on distributions and slices.
MASS_TOL = 1e-9


def _neg_xlog2x_sum(values: np.ndarray) -> float:
    """Return ``-sum(v * log2(v))`` with the 0*log0 := 0 convention."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    logs = np.zeros_like(v)
    np.log2(v, out=logs, where=v > 0.0)
    return float(-(v * logs).sum())


#: Largest block of marginal cells one fused entropy pass holds at a time.
_BLOCK_BYTES = 256 << 10


def _block_entropies(flat: np.ndarray, kernel: np.ndarray | None,
                     starts: Sequence[int]) -> np.ndarray:
    """Entropies ``[segments, B]`` of the marginals ``flat @ kernel``.

    The columns of the marginals ``[B, cells]`` (``flat`` itself when
    ``kernel`` is None) fall into segments that begin at ``starts``, one
    marginal each; row ``i`` of the result is ``-sum(m * log2(m))`` of each
    batch row over segment ``i``, with 0*log0 := 0.  The rows go in blocks of
    at most ``_BLOCK_BYTES`` of marginal cells, each one matmul, one pass in
    which zero cells take ``log2(1) = 0`` (so no masked ``log2`` is needed)
    and one segmented row sum.
    """
    width = flat.shape[1] if kernel is None else kernel.shape[1]
    step = max(1, _BLOCK_BYTES // (8 * width))
    out = np.empty((len(starts), flat.shape[0]))
    for i in range(0, flat.shape[0], step):
        m = flat[i:i + step] if kernel is None else flat[i:i + step] @ kernel
        x = np.where(m > 0.0, m, 1.0)
        np.log2(x, out=x)
        x *= m
        out[:, i:i + step] = -np.add.reduceat(x, starts, axis=1).T
    return out


class KernelCache:
    """Read-only values by key under a byte budget: a law's marginal kernels
    with their segment starts, or :func:`search.canonical_table`'s tables.

    ``size(value)`` is a value's bytes.  The oldest values are evicted
    first; a single value larger than the budget is kept alone.  ``build``
    must return a read-only value, because callers share it.
    """

    def __init__(self, size: Callable[[Any], int], budget: int = 64 << 20) -> None:
        self.size = size
        self.budget = budget
        self._entries: dict[Hashable, Any] = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        value = self._entries.get(key)
        if value is None:
            value = self._entries[key] = build()
            self.nbytes += self.size(value)
            while len(self._entries) > 1 and self.nbytes > self.budget:
                self.nbytes -= self.size(self._entries.pop(next(iter(self._entries))))
        return value


@dataclass(frozen=True)
class ProbTensor:
    """Dense nonnegative tensor over named finite variable axes.

    ``names`` orders the axes; ``values.shape[i]`` is the cardinality of
    ``names[i]``.  Construction checks structure only (shapes, unique names,
    size budget); the mass invariants are checked by :func:`validate` /
    :func:`require_valid` so that deliberately invalid tensors can be built
    and diagnosed.  A conditional law keeps the kernels that fold it into
    batches of input laws (:meth:`marginal_kernel`), freed with the law.
    """

    names: tuple[str, ...]
    values: np.ndarray
    _kernels: KernelCache = field(default_factory=lambda: KernelCache(lambda v: v[0].nbytes),
                                  init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != len(self.names):
            raise DimensionMismatchError(
                "tensor rank does not match axis names",
                rank=values.ndim,
                names=list(self.names),
            )
        if len(set(self.names)) != len(self.names):
            raise DimensionMismatchError("axis names are not unique", names=list(self.names))
        if any(c < 1 for c in values.shape):
            raise DimensionMismatchError("every axis needs cardinality >= 1", shape=values.shape)
        if values.size > SIZE_LIMIT:
            raise SizeLimitError(
                "dense tensor exceeds size budget", size=values.size, limit=SIZE_LIMIT
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    def from_array(cls, values: np.ndarray, names: Sequence[str]) -> "ProbTensor":
        return cls(tuple(names), np.asarray(values, dtype=np.float64))

    @property
    def cards(self) -> tuple[int, ...]:
        return self.values.shape

    def card(self, name: str) -> int:
        return self.values.shape[self.axis(name)]

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownAxisError("no such axis", axis=name, have=list(self.names)) from None

    def axes(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(n) for n in names)

    def marginal_kernel(
        self, names: tuple[str, ...], shape: tuple[int, ...], keys: tuple[frozenset[str], ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Matrix ``G`` such that ``q_flat @ G`` holds flattened marginals, and
        the column at which each marginal starts.

        ``self`` is a conditional law whose conditioning axes are among
        ``names``, and ``q`` a tensor over ``names`` with ``shape``; the
        joint is ``q * self`` over ``names`` and the law's other axes (its
        outputs).  ``G`` holds one block of columns per subset of ``keys``,
        side by side in their order.  A block is :func:`_contract` of the
        identity batch (row ``k`` the point mass on input cell ``k``), so
        entry ``[k, s]`` is 0 or the law's marginal on the subset's outputs at
        input cell ``k`` and kept cell ``s``, times 1.0 plus exact zeros.
        When a subset names no output the law is never read: its block is the
        0/1 aggregation of ``q``, so the marginal is an exact sum.  The
        identity goes in row blocks of at most ``_BLOCK_BYTES``, so building
        ``G`` allocates ``G``, one identity block and at most a copy of the
        law per contraction.  Kept cells are ordered like the joint's axes:
        ``names``, then outputs.  Both arrays are read-only and kept under
        ``(names, shape, keys)``: a repeated call is one lookup.
        """
        def build() -> tuple[np.ndarray, np.ndarray]:
            cards = dict(zip(names, shape)) | dict(zip(self.names[2:], self.cards[2:]))
            widths = [math.prod(cards[n] for n in cards if n in key) for key in keys]
            starts = np.cumsum([0, *widths[:-1]])
            cells = math.prod(shape)
            g = np.empty((cells, sum(widths)))
            step = max(1, _BLOCK_BYTES // (8 * cells))
            for i in range(0, cells, step):
                eye = np.eye(min(step, cells - i), cells, i).reshape(-1, *shape)
                for key, start, width in zip(keys, starts, widths):
                    g[i:i + step, start:start + width] = _contract(names, eye, self, key)
            g.setflags(write=False)
            starts.setflags(write=False)
            return g, starts

        return self._kernels.get((names, shape, keys), build)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a mass-invariant check.

    ``slice_deviations`` holds ``|mass - 1|`` per conditioning slice in
    C-order of the conditioning axes (a single entry for unconditional
    tensors).  ``worst_slice`` identifies the offending slice by axis name.
    """

    ok: bool
    min_value: float
    max_deviation: float
    worst_slice: dict[str, int]
    slice_deviations: np.ndarray = field(repr=False)


def validate(t: ProbTensor, conditioning: Iterable[str] = ()) -> ValidationReport:
    """Check nonnegativity and per-slice normalization; never raises."""
    cond = tuple(conditioning)
    cond_axes = t.axes(cond)
    sum_axes = tuple(i for i in range(len(t.names)) if i not in cond_axes)
    mass = t.values.sum(axis=sum_axes) if sum_axes else t.values
    mass = np.atleast_1d(np.asarray(mass))
    dev = np.abs(mass - 1.0)
    flat_worst = int(np.argmax(dev))
    if cond_axes:
        shape = tuple(t.values.shape[i] for i in cond_axes)
        idx = np.unravel_index(flat_worst, shape)
        worst = {cond[k]: int(idx[k]) for k in range(len(cond))}
    else:
        worst = {}
    min_value = float(t.values.min())
    max_dev = float(dev.max())
    ok = min_value >= -MASS_TOL and max_dev <= MASS_TOL
    return ValidationReport(
        ok=ok,
        min_value=min_value,
        max_deviation=max_dev,
        worst_slice=worst,
        slice_deviations=dev.reshape(-1),
    )


def require_valid(t: ProbTensor, conditioning: Iterable[str] = ()) -> ValidationReport:
    """Like :func:`validate` but raises on the first violated invariant;
    ``NaN`` and infinite entries come first."""
    bad = int(np.count_nonzero(~np.isfinite(t.values)))
    if bad:
        raise ValidationError("tensor has non-finite entries", count=bad)
    report = validate(t, conditioning)
    if report.min_value < -MASS_TOL:
        raise NegativeMassError(
            "tensor has negative probability mass", min_value=report.min_value
        )
    if report.max_deviation > MASS_TOL:
        raise SliceNormalizationError(
            "slice mass deviates from 1",
            slice=report.worst_slice,
            deviation=report.max_deviation,
        )
    return report


def marginalize(t: ProbTensor, keep: Iterable[str]) -> ProbTensor:
    """Sum out every axis not in ``keep`` (unconditional tensors only).

    Summing is exact -- no renormalization is applied.
    """
    keep = tuple(keep)
    keep_axes = set(t.axes(keep))
    order = [n for n in t.names if n in set(keep)]
    sum_axes = tuple(i for i in range(len(t.names)) if i not in keep_axes)
    out = t.values.sum(axis=sum_axes) if sum_axes else t.values
    return ProbTensor(tuple(order), np.asarray(out, dtype=np.float64))


@dataclass(frozen=True)
class InfoQuery:
    """Variable sets for an information query ``target``/``second``/``given``.

    The three sets must be pairwise disjoint and name existing axes of the
    tensor they are evaluated against.
    """

    target: frozenset[str]
    second: frozenset[str] = frozenset()
    given: frozenset[str] = frozenset()

    @classmethod
    def of(
        cls,
        target: str | Iterable[str],
        second: str | Iterable[str] = (),
        given: str | Iterable[str] = (),
    ) -> "InfoQuery":
        return cls(_as_names(target), _as_names(second), _as_names(given))

    def __post_init__(self) -> None:
        if not self.target:
            raise InvalidQueryError("query target set is empty")
        if self.target & self.second or self.target & self.given or self.second & self.given:
            raise OverlappingSetsError(
                "query sets overlap",
                target=sorted(self.target),
                second=sorted(self.second),
                given=sorted(self.given),
            )

    def check_names(self, t: ProbTensor) -> None:
        for name in sorted(self.target | self.second | self.given):
            t.axis(name)


def _as_names(spec: str | Iterable[str]) -> frozenset[str]:
    if isinstance(spec, str):
        return frozenset((spec,))
    return frozenset(spec)


def _subset_entropy(t: ProbTensor, names: frozenset[str]) -> float:
    sum_axes = tuple(i for i, n in enumerate(t.names) if n not in names)
    m = t.values.sum(axis=sum_axes) if sum_axes else t.values
    return _neg_xlog2x_sum(m)


def entropy(t: ProbTensor, q: InfoQuery) -> float:
    """Conditional entropy ``H(target | given)`` in bits.

    ``q.second`` must be empty.  The result is clamped into
    ``[0, log2(prod of target cardinalities)]`` (floating slack only).
    """
    if q.second:
        raise InvalidQueryError("entropy query must have an empty `second` set")
    q.check_names(t)
    h = _subset_entropy(t, q.target | q.given) - _subset_entropy(t, q.given)
    return max(h, 0.0)


#: Mutual-information term ``I(target; second | given)`` as three tuples of
#: axis names; the row format of every constraint and objective table.
Term = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


def term(
    target: str | Iterable[str], second: str | Iterable[str], given: str | Iterable[str] = ()
) -> Term:
    """A :data:`Term`; a lone axis may be named by a bare string."""
    return tuple((n,) if isinstance(n, str) else tuple(n) for n in (target, second, given))


def mutual_information(t: ProbTensor, q: InfoQuery) -> float:
    """Conditional mutual information ``I(target; second | given)`` in bits."""
    if not q.second:
        raise InvalidQueryError("mutual information query needs a nonempty `second` set")
    q.check_names(t)
    h_tg = _subset_entropy(t, q.target | q.given)
    h_sg = _subset_entropy(t, q.second | q.given)
    h_g = _subset_entropy(t, q.given)
    h_tsg = _subset_entropy(t, q.target | q.second | q.given)
    return max(h_tg + h_sg - h_g - h_tsg, 0.0)


def compose_joint(aux: "AuxInputDist", ch: "DiscreteIC") -> ProbTensor:
    """Full joint over ``(W1, W2, X1, X2, Y1, Y2)`` for a layered input law.

    The construction multiplies ``P(w1) P(w2) P(x1|w1) P(x2|w2)`` with the
    channel law, so the chains ``(W1, W2) -> (X1, X2) -> (Y1, Y2)``,
    ``W1 -> X1 -> outputs`` and ``W2 -> X2 -> outputs`` hold by construction.
    """
    if aux.nx1 != ch.nx1 or aux.nx2 != ch.nx2:
        raise DimensionMismatchError(
            "input-layer cardinalities do not match the channel",
            aux=(aux.nx1, aux.nx2),
            channel=(ch.nx1, ch.nx2),
        )
    joint = np.einsum(
        "a,b,ai,bj,ijkl->abijkl",
        aux.pw1,
        aux.pw2,
        aux.px1_given_w1,
        aux.px2_given_w2,
        ch.law.values,
        optimize=True,
    )
    return ProbTensor(("W1", "W2", "X1", "X2", "Y1", "Y2"), joint)


def _law_marginal(law: ProbTensor, keep: frozenset[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The law's marginal on the outputs in ``keep``, and its axis names.

    Its axes are the law's inputs, then the kept outputs in law order; the
    other outputs are summed one cell at a time in their flattened order.
    When ``keep`` names no output the law is not read: the scalar 1, no axes.
    """
    names = tuple(n for i, n in enumerate(law.names) if i < 2 or n in keep)
    if len(names) == 2:
        return np.ones(()), ()
    drop = [i for i, n in enumerate(law.names) if n not in names]
    v = np.moveaxis(law.values, drop, range(len(drop)))
    return sum(v.reshape(-1, *v.shape[len(drop):])), names


def _contract(names: tuple[str, ...], q: np.ndarray, law: ProbTensor | None,
              key: frozenset[str]) -> np.ndarray:
    """Marginal ``[B, kept cells]`` on ``key`` of the joints ``q`` times
    ``law`` (see :class:`BatchJoint`) without a kernel: one einsum of ``q``
    with :func:`_law_marginal`, or axis sums when ``key`` names no output."""
    outputs = law.names[2:] if law is not None else ()
    if key & set(outputs):
        marg, marg_names = _law_marginal(law, key)
        sub = {n: i + 1 for i, n in enumerate(names + outputs)}
        m = np.einsum(q, [0, *(sub[n] for n in names)], marg, [sub[n] for n in marg_names],
                      [0, *(sub[n] for n in names + outputs if n in key)], optimize=True)
    else:
        sum_axes = tuple(i + 1 for i, n in enumerate(names) if n not in key)
        m = q.sum(axis=sum_axes) if sum_axes else q
    return m.reshape(m.shape[0], -1)


def joint_entropies(names: tuple[str, ...], q: np.ndarray, law: ProbTensor | None,
                    keys: Sequence[frozenset[str]]) -> np.ndarray:
    """Entropies ``[len(keys), B]`` of the marginals on ``keys`` of the joints
    ``q [B, ...]`` over ``names`` times ``law`` (see :class:`BatchJoint`).

    The one place that chooses how: with a law and joints of at most
    ``BatchJoint._AGG_LIMIT`` cells, one :func:`_block_entropies` pass over
    the law's kernel for all ``keys`` (:meth:`ProbTensor.marginal_kernel`);
    otherwise one :func:`_contract` and one pass per key.
    """
    if law is not None and math.prod(q.shape[1:] + law.cards[2:]) <= BatchJoint._AGG_LIMIT:
        kernel, starts = law.marginal_kernel(names, q.shape[1:], tuple(keys))
        return _block_entropies(np.ascontiguousarray(q.reshape(len(q), -1)), kernel, starts)
    return np.array([_block_entropies(_contract(names, q, law, k), None, (0,))[0] for k in keys])


class TermTable:
    """Columns of signed mutual-information terms, the one evaluator of
    every constraint table, objective and probe.  ``columns[c]`` lists
    ``(sign, Term)`` rows, compiled once into ``keys``, the distinct entropy
    subsets in first-use order; ``index``, the positions in ``keys`` of each
    term ``I(T;S|G)``'s subsets ``(T|G, S|G, G, T|S|G)``; ``terms``, every
    row's term in order; and each row's column and sign.
    """

    def __init__(self, columns: Sequence[Sequence[tuple[int, Term]]]) -> None:
        rows = [(c, sign, t) for c, column in enumerate(columns) for sign, t in column]
        self.terms = tuple(t for *_, t in rows)
        self._rows = [(c, sign) for c, sign, _ in rows]
        self._width = len(columns)
        keys: dict[frozenset[str], int] = {}
        self.index = [tuple(keys.setdefault(k, len(keys)) for k in (t | g, s | g, g, t | s | g))
                      for t, s, g in (map(frozenset, row) for row in self.terms)]
        self.keys = tuple(keys)

    def mi(self, h: np.ndarray | Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """Each term's ``max((h_a + h_b) - h_c - h_d, 0)`` ``[B]``, in row
        order, from the entropies ``h[i] [B]`` of ``keys[i]``.  The terms are
        made as :meth:`combine` reads them, so a batch holds one term's
        temporaries at a time besides ``h``."""
        return (np.maximum(h[a] + h[b] - h[c] - h[d], 0.0) for a, b, c, d in self.index)

    def combine(self, values: Iterable[np.ndarray]) -> list[np.ndarray]:
        """The columns, unstacked: each row's per-term value, signed, added
        into its column in row order (each column starts from 0.0); a lazy
        ``values`` is read one term at a time."""
        cols: list = [0.0] * self._width
        for (c, sign), v in zip(self._rows, values):
            cols[c] = cols[c] + v if sign > 0 else cols[c] - v
        return cols


class BatchJoint:
    """A batch of joint distributions sharing one axis layout.

    ``values`` has shape ``[B, c1, ..., cn]`` over the axes ``in_names``;
    row ``b`` is one distribution.  Without a ``law`` that is the joint.
    With a conditional ``law`` over the inputs ``(X1, X2)`` (its first two
    axes) and outputs, such as a channel's ``p(y1,y2|x1,x2)`` or a
    coupling's joint law, row ``b`` is an input law over axes that include
    the inputs, and the joint is that law times ``law`` over ``in_names``
    plus the outputs (``names``).  Its marginals are contracted from the
    input law and the law's marginal on the kept outputs
    (:func:`joint_entropies`), so the joint itself is never formed.

    Subset entropies are cached per instance, and :meth:`entropies` fills
    the cache for many subsets at once.  Callers must not mutate ``values``.
    """

    #: Joints with more cells than this marginalize by one einsum of the
    #: input law with the law's output marginal, not a kernel.  Below it the
    #: kernel is faster on small input layouts, but the limit does not bound
    #: kernel bytes, and on wide input layouts ``q @ G`` does |kept input
    #: cells| times the work the einsum does.
    _AGG_LIMIT = 65536

    def __init__(
        self, in_names: Sequence[str], values: np.ndarray, law: ProbTensor | None = None
    ) -> None:
        self.in_names = tuple(in_names)
        self.values = values
        if values.ndim != len(self.in_names) + 1:
            raise DimensionMismatchError(
                "batch rank must be 1 + number of axes",
                rank=values.ndim,
                names=list(self.in_names),
            )
        self._law = law
        if law is not None and any(
                n not in self.in_names or values.shape[1 + self.in_names.index(n)] != law.card(n)
                for n in law.names[:2]):
            raise DimensionMismatchError(
                "input law does not match the law's inputs",
                names=list(self.in_names), shape=values.shape[1:], law=law.cards,
            )
        self.names = self.in_names + (law.names[2:] if law is not None else ())
        self._cache: dict[frozenset[str], np.ndarray] = {}

    @property
    def batch_size(self) -> int:
        return self.values.shape[0]

    def entropies(self, keys: Sequence[frozenset[str]]) -> list[np.ndarray]:
        """Entropies ``[B]`` of the marginals on ``keys``, in their order; the
        subsets not cached yet go through one :func:`joint_entropies` call."""
        missing = [k for k in dict.fromkeys(keys) if k not in self._cache]
        unknown = set().union(*missing) - set(self.names)
        if unknown:
            raise UnknownAxisError("no such axis", axis=sorted(unknown), have=list(self.names))
        if missing:
            self._cache.update(zip(missing, joint_entropies(
                self.in_names, self.values, self._law, missing)))
        return [self._cache[k] for k in keys]

    def entropy(self, names: Iterable[str]) -> np.ndarray:
        return self.entropies((frozenset(names),))[0]
