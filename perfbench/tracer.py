"""Spans around the public functions of the program, recorded from outside it.

``Tracer.install`` replaces each named function or method with a wrapper
that records a span: name, start, end, parent span, the top-level call the
span belongs to, and the benchmark phase that was current.  Every binding a
module imported by name (``pipeline.predict`` is ``training.predict``) is
replaced too, so calls through either name are seen.  Spans stay in memory
until the run ends.  A target that no longer exists is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from types import ModuleType
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    phase: str
    parent: int | None
    root: int
    start: int  # ns
    end: int = -1  # ns; -1 while open


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(s.id, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "none"
        self.absent: list[str] = []
        self.counts: Counter = Counter()  # named counts that probes add to
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self.phase,
                    parent.id if parent else None,
                    parent.root if parent else len(self.spans), self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            if probe is not None:
                probe(self, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)
        return traced

    # -- installing -----------------------------------------------------------

    def install(self, modules: dict[str, ModuleType], targets: list[str],
                probes: dict[str, Callable] | None = None) -> None:
        """Wrap each ``module.function`` or ``module.Class.method`` target."""
        probes = probes or {}
        self.absent = []
        for target in targets:
            module_name, *path = target.split(".")
            owner = modules.get(module_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                self.absent.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(target, raw.__func__, probes.get(target)))
            else:
                replacement = self.wrap(target, raw, probes.get(target))
            self._patch(owner, path[-1], replacement)
            if isinstance(owner, ModuleType):
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(phase, span name) -> (total self time in ns, number of calls)."""
        own = self_times(self.spans)
        out: dict[tuple[str, str], tuple[int, int]] = {}
        for s in self.spans:
            ns, calls = out.get((s.phase, s.name), (0, 0))
            out[(s.phase, s.name)] = (ns + own[s.id], calls + 1)
        return out

    def has_descendant(self, ancestor_name: str, descendant_name: str) -> set[int]:
        """Ids of ``ancestor_name`` spans with a ``descendant_name`` span below them."""
        by_id = {s.id: s for s in self.spans}
        found = set()
        for s in self.spans:
            if s.name != descendant_name:
                continue
            parent = s.parent
            while parent is not None:
                if by_id[parent].name == ancestor_name:
                    found.add(parent)
                parent = by_id[parent].parent
        return found

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.phase, s.parent, s.root,
                                     s.start, s.end]) + "\n")
