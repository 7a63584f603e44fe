"""Outside-in tracer for the benchmark.

Wraps functions where the library looks them up, in a module namespace
or on a class, so no library source changes.  Spans stay in memory as
(span id, parent id, name, start, end, self seconds) and are written out
when the run ends.  Self time is a span's duration minus the time its
traced children cover.

A target that a later change deletes or renames is recorded as missing
and its metrics are left out; it never raises.  A hook that can no longer
read what it expects marks its counters broken the same way.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# CPU seconds, the clock the runner times operations with
_clock = time.process_time
_DONE = object()
# a hook fails this way when the value it inspects has changed shape
_HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


@dataclass(frozen=True)
class Patch:
    """Wrap `target` ("module:attr" or "module:Class.attr") as span `span`.

    `before(counters, gauges, args, kwargs)` and
    `after(counters, gauges, args, kwargs, result)` feed the metrics named
    in `feeds`; `each(counters, gauges, item)` does so per generator item.
    """

    target: str
    span: str
    before: object = None
    after: object = None
    each: object = None
    generator: bool = False
    feeds: tuple = ()


@dataclass
class Phase:
    """Spans and counters recorded between two drains."""

    spans: list
    counters: dict
    gauges: dict
    calls: dict = field(init=False)
    busy: dict = field(init=False)
    own: dict = field(init=False)

    def __post_init__(self):
        self.calls, self.busy, self.own = defaultdict(int), defaultdict(float), defaultdict(float)
        for _, _, name, start, end, own in self.spans:
            self.calls[name] += 1
            self.busy[name] += end - start
            self.own[name] += own

    @property
    def self_total(self) -> float:
        return sum(self.own.values())


def _resolve(target: str):
    """(owner, attr) for "pkg.mod:attr" or "pkg.mod:Class.attr", or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self, patches):
        self.patches = tuple(patches)
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self.installed_spans: set[str] = set()
        self.archive: list[tuple[str, Phase]] = []
        self._spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._counters = defaultdict(float)
        self._gauges: dict = {}
        self._originals: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for p in self.patches:
            found = _resolve(p.target)
            if found is None:
                if p.target not in self.missing:
                    self.missing.append(p.target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrap = self._wrap_generator if p.generator else self._wrap
            setattr(owner, attr, wrap(original, p))
            self._originals.append((owner, attr, original))
            self.installed_spans.add(p.span)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _hook(self, p: Patch, hook, *args) -> None:
        try:
            hook(self._counters, self._gauges, *args)
        except _HOOK_ERRORS:
            self.broken.update(p.feeds)

    def _wrap(self, fn, p: Patch):
        spans, stack, clock, name = self._spans, self._stack, _clock, p.span
        tracer = self

        def traced(*args, **kwargs):
            if p.before is not None:
                tracer._hook(p, p.before, args, kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, name, start, end, end - start - frame[1]))
            if p.after is not None:
                tracer._hook(p, p.after, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, p: Patch):
        """Time each step of a generator as one span; the consumer's work
        between steps is not part of it."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = tracer._wrap(lambda: next(it, _DONE), Patch(p.target, p.span))
            while (item := step()) is not _DONE:
                if p.each is not None:
                    tracer._hook(p, p.each, item)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------

    def drain(self, label: str) -> Phase:
        """Hand over everything recorded since the last drain."""
        phase = Phase(list(self._spans), dict(self._counters), dict(self._gauges))
        self._spans.clear()
        self._counters.clear()
        self._gauges.clear()
        self.archive.append((label, phase))
        return phase

    def write_spans(self, path) -> int:
        """One CSV row per span: phase, id, parent id, name, start/end in
        microseconds from the first span, self microseconds."""
        rows = [(label, s) for label, phase in self.archive for s in phase.spans]
        origin = min((s[3] for _, s in rows), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("phase,id,parent,name,start_us,end_us,self_us\n")
            for label, (sid, parent, name, start, end, own) in rows:
                fh.write(
                    f"{label},{sid},{parent},{name},{(start - origin) * 1e6:.1f},"
                    f"{(end - origin) * 1e6:.1f},{own * 1e6:.1f}\n"
                )
        return len(rows)
