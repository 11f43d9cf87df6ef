"""Span tracer that wraps bootmctp functions from outside the package.

A target is named ``"<module>.<function>"`` relative to the ``bootmctp``
package, for example ``"_rng.substream"``.  While the tracer is active,
every ``bootmctp.*`` module attribute that *is* the target function is
replaced by a wrapper, so calls are seen in the namespace of the calling
module (``bootmctp.mctp.run_bootstrap``, ``bootmctp.bootstrap.substream``,
...).  The original attributes are put back on exit.

Spans are kept in memory as ``(name, start_ns, end_ns, parent)`` tuples,
``parent`` being the index of the enclosing span or -1.  Calls made in
worker processes are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    """Context manager recording one span per call of each target.

    ``observe(name, args, kwargs, result, elapsed_ns)``, when given, is
    called after every successful traced call; the benchmark uses it to
    count replicates and to capture outputs for its checks.
    """

    def __init__(self, targets, observe=None):
        self.targets = tuple(targets)
        self.observe = observe
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self.observe
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(name, args, kwargs, result, end - start)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key.startswith("bootmctp.") and m is not None]
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"bootmctp.{module_name}"),
                               func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in nanoseconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
        return out
