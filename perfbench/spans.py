"""In-memory span recorder for the traced benchmark run.

The traced run wraps calls into public functions and methods of
``repro`` modules from the benchmark's own files; nothing under
``src/repro`` is edited.  Each wrapped call records one span — name,
start, end, parent span and run id — in a list kept in memory and
written out once the run ends.  Counts (rows, frames, subset fits) are
recorded at the same boundaries.

The parent of a span is the innermost open span *of the same thread*,
so children always nest inside their parent's interval; a span opened
on another thread (a pipelined ingest writer, a query-server session)
is a root of its own.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span id, parent id or 0, name, start, end, thread id)
Span = Tuple[int, int, str, float, float, int]


class Tracer:
    """Records spans and counts; installs and removes call wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def open_names(self) -> List[str]:
        """Names of this thread's open spans, outermost first."""
        return [name for _, name in self._stack()]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    # -- wrapping ------------------------------------------------------
    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(
        self,
        owner: object,
        attr: str,
        name,
        on_return: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a callable ``(args, kwargs) ->
        name``; ``on_return(args, kwargs, result)`` records counts.
        For a module-level function every ``repro`` module that bound
        the same object with ``from ... import`` is patched too, so
        calls through any binding are seen.
        """
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        name_of = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name_of(args, kwargs)):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        for module_owner in _bindings(owner, attr, original):
            self._replace(module_owner, attr, wrapper)

    def count_calls(self, owner: object, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def counter(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counter)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, name, start, end, thread in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "thread": thread,
                }) + "\n")


def _bindings(owner: object, attr: str, original: object) -> List[object]:
    """``owner`` plus every loaded ``repro`` module bound to ``original``."""
    found = [owner]
    if not isinstance(owner, type):
        for module_name, module in list(sys.modules.items()):
            if (
                module is not None
                and module is not owner
                and (module_name == "repro" or module_name.startswith("repro."))
                and module.__dict__.get(attr) is original
            ):
                found.append(module)
    return found


# -- analysis -------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, _, start, end, _ in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (the span-name prefix)."""
    selfs = self_times(spans)
    totals: Dict[str, float] = collections.defaultdict(float)
    for span in spans:
        totals[layer_of(span[2])] += selfs[span[0]]
    return dict(totals)


class SpanIndex:
    """Ancestor-aware queries over one run's spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self._by_id = {span[0]: span for span in self.spans}

    def ancestors(self, span: Span):
        parent = span[1]
        while parent:
            ancestor = self._by_id.get(parent)
            if ancestor is None:
                return
            yield ancestor
            parent = ancestor[1]

    def outermost(self, names: Iterable[str], under: Iterable[str] = ()) -> List[Span]:
        """Spans named in ``names`` with no ancestor also in ``names``.

        With ``under``, keep only spans with an ancestor named there.
        """
        names, under = frozenset(names), frozenset(under)
        found = []
        for span in self.spans:
            if span[2] not in names:
                continue
            lineage = [a[2] for a in self.ancestors(span)]
            if names.intersection(lineage):
                continue
            if under and not under.intersection(lineage):
                continue
            found.append(span)
        return found

    def inclusive_s(self, names: Iterable[str], under: Iterable[str] = ()) -> float:
        """Time in ``names`` spans, nested repeats counted once."""
        return sum(end - start for _, _, _, start, end, _ in self.outermost(names, under))

    def children(self, span: Span) -> List[Span]:
        return sorted((s for s in self.spans if s[1] == span[0]), key=lambda s: s[3])
