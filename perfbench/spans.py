"""Outside-in tracing of the package's public functions.

`Tracer.install` replaces each public function with a wrapper that records
a span (name, start, end, parent span, operation id) and rebinds the
wrapper in every module of the package that holds the original, so calls
from one module into another are caught too.  Nothing in the package is
edited; `uninstall` puts the originals back.  Spans stay in memory until
`write` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# public names that are not exported by the package's __init__
EXTRA_TARGETS = (
    ("cli", "dispatch"),
    ("isomorphism", "automorphisms_of"),
    ("models", "dedupe_actions"),
)
EXTRA_METHODS = (("system", "RestrictionSystem", "full_report"),)


def span_name(fn) -> str:
    """`<module>.<qualified name>` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        # (name, start, end, parent index or -1, operation id)
        self.spans: list = []
        self.op = -1
        self._open: list[int] = []
        self._undo: list = []

    def _wrap(self, fn):
        name = span_name(fn)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions."""
        prefix = package.__name__ + "."
        targets = [
            obj for obj in vars(package).values()
            if inspect.isfunction(obj) and obj.__module__.startswith(prefix)
        ]
        for mod, attr in EXTRA_TARGETS:
            fn = getattr(importlib.import_module(prefix + mod), attr)
            if fn not in targets:
                targets.append(fn)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))
        ]
        for fn in targets:
            wrapper = self._wrap(fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for mod, cls_name, attr in EXTRA_METHODS:
            cls = getattr(sys.modules[prefix + mod], cls_name)
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str, header: dict) -> None:
        """Dump the spans as compact JSON, times in ns from the first span;
        call it only when no wrapped call is running."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [
            [code[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p, op]
            for n, a, b, p, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**header, "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                 "names": names, "spans": rows},
                fh, separators=(",", ":"),
            )
            fh.write("\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_stats(spans, op_bucket=None) -> dict:
    """Per span name: calls, busy_s, self_s and busy_s.<bucket>.

    busy_s sums the spans that have no ancestor of the same name, so a
    recursive call is not counted twice; self_s is each span's duration
    minus the part of it that its child spans cover, summed.  op_bucket
    maps an operation id to a size bucket name.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        length = end - start
        inner = [
            (max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end
        ]
        entry["self_s"] += length - covered(inner)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["busy_s"] += length
            bucket = op_bucket.get(op) if op_bucket else None
            if bucket is not None:
                key = f"busy_s.{bucket}"
                entry[key] = entry.get(key, 0.0) + length
    return stats
