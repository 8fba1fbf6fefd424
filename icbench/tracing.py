"""Spans and counters recorded around calls into the program's layers.

Each traced function is replaced, for the length of one traced round, by a
wrapper installed under the name through which its caller looks it up (for
example ``regimes.maximize`` and ``sumcap.maximize``, because both modules
import ``maximize`` by name).  Spans nest on one stack; a span's self time is
its duration minus the time its child spans cover.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# Per-layer metrics: name -> (unit, how the value is derived from one round).
#   ("total", span)  summed span durations      ("self", span)  summed self times
#   ("count", key)   counter                    ("ascent",)     maximize minus grid scan
#   ("ratio",)       channels accepted / tried
#   ("import",) and ("overhead",) are filled in by run.py: the program's import
#   time, and the median traced round minus the median untraced round.
LAYER_METRICS: dict[str, tuple[str, tuple]] = {
    "setup.import_s": ("s", ("import",)),
    "channels.load_s": ("s", ("total", "channels.load")),
    "serialize.dump_s": ("s", ("total", "serialize.dump")),
    "serialize.bytes": ("bytes", ("count", "serialize.bytes")),
    "search.maximize_calls": ("count", ("count", "search.maximize_calls")),
    "search.grid_points": ("count", ("count", "search.grid_points")),
    "search.grid_s": ("s", ("total", "search.grid")),
    "search.ascent_s": ("s", ("ascent",)),
    "search.ascent_evals": ("count", ("count", "search.ascent_evals")),
    "search.objective_calls": ("count", ("count", "search.objective_calls")),
    "search.objective_s": ("s", ("self", "search.objective")),
    "search.project_calls": ("count", ("count", "search.project_calls")),
    "probtensor.entropy_calls": ("count", ("count", "probtensor.entropy_calls")),
    "probtensor.entropy_misses": ("count", ("count", "probtensor.entropy_misses")),
    "probtensor.entropy_s": ("s", ("self", "probtensor.entropy")),
    "probtensor.bytes_read": ("bytes", ("count", "probtensor.bytes_read")),
    "regions.family_s": ("s", ("self", "regions.family")),
    "regions.laws": ("count", ("count", "regions.laws")),
    "regions.joint_s": ("s", ("total", "regions.joint")),
    "regions.joint_bytes": ("bytes", ("count", "regions.joint_bytes")),
    "regions.bounds_s": ("s", ("self", "regions.bounds")),
    "regions.accumulate_calls": ("count", ("count", "regions.accumulate_calls")),
    "regions.accumulate_rows": ("count", ("count", "regions.accumulate_rows")),
    "regions.accumulate_s": ("s", ("total", "regions.accumulate")),
    "regions.finalize_s": ("s", ("total", "regions.finalize")),
    "regimes.check_s": ("s", ("total", "regimes.check")),
    "sumcap.tin_s": ("s", ("total", "sumcap.tin")),
    "sumcap.dominance_s": ("s", ("total", "sumcap.dominance")),
    "sumcap.certify_s": ("s", ("total", "sumcap.certify")),
    "verify.generate_s": ("s", ("total", "verify.generate")),
    "verify.candidates": ("count", ("count", "verify.candidates")),
    "verify.accept_ratio": ("ratio", ("ratio",)),
    "gaussian.split_calls": ("count", ("count", "gaussian.split_calls")),
    "gaussian.mi_calls": ("count", ("count", "gaussian.mi_calls")),
    "gaussian.mi_s": ("s", ("total", "gaussian.mi")),
    "gaussian.regime_s": ("s", ("total", "gaussian.regime")),
    "trace.overhead_s": ("s", ("overhead",)),
}


class Tracer:
    """One round's spans (id, parent id, name, start, end, self time) and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [id, name, start, child_time]
        self.grid_open = False

    def enter(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans.append((sid, parent, name, start, end, end - start - child))

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this round, except import time and overhead."""
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for _, _, name, start, end, self_time in self.spans:
            total[name] += end - start
            own[name] += self_time
        out = {}
        for metric, (_, rule) in LAYER_METRICS.items():
            kind = rule[0]
            if kind == "total":
                out[metric] = total[rule[1]]
            elif kind == "self":
                out[metric] = own[rule[1]]
            elif kind == "count":
                out[metric] = self.counts[rule[1]]
            elif kind == "ascent":
                out[metric] = total["search.maximize"] - total["search.grid"]
            elif kind == "ratio":
                tried = self.counts["verify.candidates"]
                out[metric] = self.counts["verify.accepted"] / tried if tried else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_time in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_time}) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _span(tr: Tracer, name: str, fn: Callable, count: str | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        if count:
            tr.counts[count] += 1
        tr.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.exit()
    return wrapper


def _span_generator(tr: Tracer, name: str, fn: Callable) -> Callable:
    """Span around each step of a generator, so only its own work is timed."""
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tr.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tr.exit()
            yield item
    return wrapper


def _maximize(tr: Tracer, fn: Callable) -> Callable:
    def traced_objective(objective: Callable) -> Callable:
        def wrapper(batch):
            rows = next(iter(batch.values())).shape[0]
            tr.counts["search.objective_calls"] += 1
            if not tr.grid_open:
                tr.counts["search.ascent_evals"] += rows
            tr.enter("search.objective")
            try:
                return objective(batch)
            finally:
                tr.exit()
        return wrapper

    def wrapper(objective, *args, **kwargs):
        tr.counts["search.maximize_calls"] += 1
        tr.enter("search.maximize")
        try:
            return fn(traced_objective(objective), *args, **kwargs)
        finally:
            tr.exit()
    return wrapper


def _grid_batches(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tr.enter("search.grid")
        tr.grid_open = True
        try:
            for idx, batch in fn(*args, **kwargs):
                tr.counts["search.grid_points"] += idx.size
                yield idx, batch
        finally:
            tr.grid_open = False
            tr.exit()
    return wrapper


def _counter(tr: Tracer, key: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tr.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _entropy(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(self, names):
        names = tuple(names)
        tr.counts["probtensor.entropy_calls"] += 1
        if frozenset(names) not in self._cache:
            tr.counts["probtensor.entropy_misses"] += 1
            tr.counts["probtensor.bytes_read"] += self.values.nbytes
        tr.enter("probtensor.entropy")
        try:
            return fn(self, names)
        finally:
            tr.exit()
    return wrapper


def _batch_joint(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tr.enter("regions.joint")
        try:
            bj = fn(*args, **kwargs)
        finally:
            tr.exit()
        tr.counts["regions.laws"] += bj.batch_size
        tr.counts["regions.joint_bytes"] += bj.values.nbytes
        return bj
    return wrapper


def _accumulate(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(self, dirs, bounds):
        tr.counts["regions.accumulate_calls"] += 1
        tr.counts["regions.accumulate_rows"] += len(bounds)
        tr.enter("regions.accumulate")
        try:
            return fn(self, dirs, bounds)
        finally:
            tr.exit()
    return wrapper


def _dump(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tr.enter("serialize.dump")
        try:
            text = fn(*args, **kwargs)
        finally:
            tr.exit()
        tr.counts["serialize.bytes"] += len(text.encode("utf-8"))
        return text
    return wrapper


def _generate(tr: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tr.enter("verify.generate")
        try:
            ch = fn(*args, **kwargs)
        finally:
            tr.exit()
        tr.counts["verify.accepted"] += 1
        return ch
    return wrapper


def patch_points(m: Any, tr: Tracer) -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, wrapper factory)`` for every traced call site.

    ``m`` holds the program's modules as attributes (``cli``, ``search``, ...).
    """
    def span(name: str, count: str | None = None) -> Callable:
        return lambda fn: _span(tr, name, fn, count)

    family = lambda fn: _span_generator(tr, "regions.family", fn)  # noqa: E731
    check = span("regimes.check")
    return [
        (m.cli, "load_channel", span("channels.load")),
        (m.cli, "load_coupling", span("channels.load")),
        (m.cli, "stable_json_dumps", lambda fn: _dump(tr, fn)),
        (m.cli, "frontier_csv", lambda fn: _dump(tr, fn)),
        (m.regimes, "maximize", lambda fn: _maximize(tr, fn)),
        (m.sumcap, "maximize", lambda fn: _maximize(tr, fn)),
        (m.search, "iter_grid_batches", lambda fn: _grid_batches(tr, fn)),
        (m.search, "project_simplex", lambda fn: _counter(tr, "search.project_calls", fn)),
        (m.probtensor.BatchJoint, "entropy", lambda fn: _entropy(tr, fn)),
        (m.regions, "scheme_family", family),
        (m.verify, "scheme_family", family),
        (m.verify, "layered_family", family),
        (m.regions, "batch_joint", lambda fn: _batch_joint(tr, fn)),
        (m.verify, "batch_joint", lambda fn: _batch_joint(tr, fn)),
        (m.regions, "batch_bounds", span("regions.bounds")),
        (m.verify, "batch_bounds", span("regions.bounds")),
        (m.regions.SupportAccumulator, "add", lambda fn: _accumulate(tr, fn)),
        (m.regions.SupportAccumulator, "finalize", span("regions.finalize")),
        (m.cli, "check_very_weak", check),
        (m.cli, "check_strong_both", check),
        (m.verify, "check_very_weak", check),
        (m.verify, "check_strong_at_y2", check),
        (m.verify, "check_strong_both", check),
        (m.sumcap, "_tin_search", span("sumcap.tin")),
        (m.sumcap, "check_genie_dominance", span("sumcap.dominance")),
        (m.cli, "certify_sum_capacity", span("sumcap.certify")),
        (m.verify, "generate_regime_channel", lambda fn: _generate(tr, fn)),
        (m.verify, "_accept", lambda fn: _counter(tr, "verify.candidates", fn)),
        (m.regions, "split_system", lambda fn: _counter(tr, "gaussian.split_calls", fn)),
        (m.gaussian.GaussSystem, "mi_bits", span("gaussian.mi", "gaussian.mi_calls")),
        (m.regimes, "very_weak_gaussian", span("gaussian.regime")),
        (m.regimes, "noisy_gaussian", span("gaussian.regime")),
    ]


class Patches:
    """Installs the wrappers for one round and restores the originals after it."""

    def __init__(self, modules: Any, tr: Tracer) -> None:
        self.points = patch_points(modules, tr)
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        for owner, attr, factory in self.points:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def summarize(rounds: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over traced rounds; counts must agree across rounds."""
    out, varying = {}, []
    for metric in rounds[0]:
        values = [r[metric] for r in rounds]
        unit = LAYER_METRICS[metric][0]
        if unit == "s":
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                varying.append(metric)
    return out, varying
