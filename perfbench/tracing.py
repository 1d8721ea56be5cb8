"""Call counts, busy time and self time of hsc's public functions.

The benchmark installs wrappers on the module attributes that hsc callers
look up at call time (``hsc.simulate.trial_rng``, ``hsc.cli.run_sweep`` and
so on), so ``src/hsc`` itself carries no tracing code.  A span's self time
is its duration minus the durations of the wrapped spans it called in the
same process.

Totals live in a lock-guarded shared array.  Pool workers that ``fork``
from the traced process inherit the wrappers and add into the same totals,
so ``busy_s`` of a function run by two workers is the sum over both.
"""
from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator

# count(args, kwargs, result) -> (counter name, increment) pairs
CountHook = Callable[[tuple, dict, object], Iterable[tuple[str, float]]]


class Tracer:
    """Per-span ``calls``/``busy_s``/``self_s`` plus named counters."""

    def __init__(self, spans: Iterable[str], counters: Iterable[str] = ()):
        keys = []
        for span in spans:
            keys += [f"{span}.calls", f"{span}.busy_s", f"{span}.self_s"]
        keys += list(counters)
        self._slot = {k: i for i, k in enumerate(keys)}
        self._totals = multiprocessing.get_context("fork").Array("d", len(keys))
        self._open: list[float] = []  # child time of each open span, innermost last

    def add(self, counter: str, value: float) -> None:
        with self._totals.get_lock():
            self._totals[self._slot[counter]] += value

    def wrap(self, span: str, fn: Callable, count: CountHook | None = None) -> Callable:
        calls = self._slot[f"{span}.calls"]
        open_spans = self._open
        totals = self._totals

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                with totals.get_lock():
                    totals[calls] += 1
                    totals[calls + 1] += dt
                    totals[calls + 2] += dt - child
            if count is not None:
                for counter, value in count(args, kwargs, result):
                    self.add(counter, value)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple[object, str, str, CountHook | None]]) -> Iterator[None]:
        """Wrap ``module.attr`` as span ``span`` for each target; restore on exit."""
        saved = []
        try:
            for module, attr, span, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> dict[str, float]:
        """Return the totals since the last call and reset them to zero."""
        with self._totals.get_lock():
            out = {k: self._totals[i] for k, i in self._slot.items()}
            for i in range(len(self._slot)):
                self._totals[i] = 0.0
        return out
