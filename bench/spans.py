"""In-memory spans around the public functions of the measured package.

The traced run rebinds module and class attributes of ``dessins`` to thin
wrappers that record one span per call: name, start, end, the span that
was open when the call began (its parent) and the operation it belongs
to.  Nothing is written while spans are recorded; ``Tracer.spans`` is
dumped once, when the process ends.  Untraced runs never import this
module, so end-to-end timings carry no wrapper cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Span recorder for one process (calls into the wrapped layers are
    single-threaded: the oracle's worker threads only run internals)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}
        self._stack: list[int] = []
        self.op: int | str | None = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self.results[name] = result
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind each (owner, attribute, span name) for the with-block.

        Works on module functions, plain methods and classmethods; the
        original attribute is put back on exit.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_op_seconds(self, ops) -> dict[str, float]:
        """Median over ``ops`` of each span name's total and self seconds.

        Keys are ``<name>_s`` (total time in the span, summed over calls)
        and ``<name>.self_s`` (that time minus the part covered by child
        spans).
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        per_op: dict[str, list[float]] = {}
        for op in ops:
            totals: dict[str, float] = {}
            for s in self.spans:
                if s["op"] != op:
                    continue
                dur = s["end"] - s["start"]
                own = dur - child_time.get(s["id"], 0.0)
                for key, value in ((s["name"] + "_s", dur),
                                   (s["name"] + ".self_s", own)):
                    totals[key] = totals.get(key, 0.0) + value
            for key, value in totals.items():
                per_op.setdefault(key, []).append(value)
        return {key: median(values) for key, values in per_op.items()}
