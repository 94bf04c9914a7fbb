"""In-memory spans around the layer boundaries of varimcf.

A span records a name, its start and end (perf_counter seconds), the index of
the span that was open when it started (its parent), the id of the operation
it belongs to, and the counters taken at that boundary.  `instrumented`
replaces the public functions where one layer calls the next with wrappers
that open a span, and restores the originals on exit, so untraced operations
run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, k: int) -> None:
        """Add k to a counter of the innermost open span."""
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[key] = counts.get(key, 0) + k

    def wrap(self, fn, name: str, counter=None):
        """fn inside a span; counter(result) gives counts to add to it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if counter is not None:
                    for key, k in counter(out).items():
                        sp.counts[key] = sp.counts.get(key, 0) + k
            return out
        return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every traced layer boundary of varimcf for the duration."""
    from varimcf import cli, flow, geometry, metrics, mollifier, presets

    # flow and cli bind these names at import or call time from the module
    # attributes patched here, so the wrappers sit exactly on the layer calls
    boundaries = [
        (presets, "make_preset", "presets.make_preset", None),
        (flow, "run", "flow.run", None),
        (flow, "curvature_with_jacobian", "mollifier.curvature_with_jacobian",
         lambda out: {"calls": 1, "query_points": len(out[0])}),
        (flow, "dissipation", "mollifier.dissipation", None),
        (mollifier.SpatialHash, "neighbor_pairs", "mollifier.neighbor_pairs",
         lambda out: {"pairs": len(out[0])}),
        (cli, "load_manifest", "cli.load_manifest", None),
        (geometry, "volume_change_series", "geometry.volume_change_series",
         None),
        (geometry, "contains", "geometry.contains",
         lambda out: {"points": len(out)}),
        (metrics, "bounded_lipschitz", "metrics.bounded_lipschitz",
         lambda out: {"support": len(out.points)}),
    ]
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in boundaries]
    certificates = dict(cli.CERTIFICATES)
    profile = vars(mollifier.Mollifier)["_profile01"]

    def counted_profile(self, rho):
        # called once per chunk with the pairs inside the kernel support
        tracer.count("kernel_pairs", rho.size)
        return profile(self, rho)

    try:
        for (owner, attr, name, counter), (_, _, fn) in zip(boundaries, saved):
            setattr(owner, attr, tracer.wrap(fn, name, counter))
        for cert, fn in certificates.items():
            cli.CERTIFICATES[cert] = tracer.wrap(fn, f"cli.certificate.{cert}")
        mollifier.Mollifier._profile01 = counted_profile
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        cli.CERTIFICATES.update(certificates)
        mollifier.Mollifier._profile01 = profile


def self_time(spans: list[Span], index: int, children: list[int]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    sp = spans[index]
    covered, reach = 0.0, sp.start
    for c in sorted(children, key=lambda c: spans[c].start):
        lo, hi = max(spans[c].start, reach), min(spans[c].end, sp.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return sp.end - sp.start - covered


def per_operation(spans: list[Span]) -> dict[str, dict[str, dict]]:
    """Per operation id and span name: total s, total self_s and counters."""
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(i)
    out: dict[str, dict[str, dict]] = {}
    for i, sp in enumerate(spans):
        row = out.setdefault(sp.run_id, {}).setdefault(
            sp.name, {"s": 0.0, "self_s": 0.0})
        row["s"] += sp.end - sp.start
        row["self_s"] += self_time(spans, i, children.get(i, []))
        for key, k in sp.counts.items():
            row[key] = row.get(key, 0) + k
    return out


def pair_yield(spans: list[Span], run_id: str) -> float | None:
    """Kernel pairs over candidate pairs in the first curvature evaluation.

    The first evaluation of an operation runs on the initial stencil.
    """
    for i, sp in enumerate(spans):
        if sp.run_id == run_id and sp.name == "mollifier.curvature_with_jacobian":
            candidates = sum(c.counts.get("pairs", 0) for c in spans
                             if c.parent == i
                             and c.name == "mollifier.neighbor_pairs")
            if candidates:
                return sp.counts.get("kernel_pairs", 0) / candidates
            return None
    return None
