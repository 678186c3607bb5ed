"""Outside-in layer timing for the traced benchmark run.

A :class:`Probe` names one entry point of the program (a method defined
on a class) and the layer it belongs to.
:func:`installed` swaps each entry point for a timing wrapper for the
duration of a ``with`` block and puts the original back afterwards.  It
edits no source file and installs no import hook: the wrappers live
only in the benchmark's own process, and only while the traced phase
runs.

Self time follows the usual rule: a call's self time is its duration
minus the time of the layer calls nested inside it.  Every nanosecond
spent inside some wrapped call is therefore charged to exactly one
layer, and the time spent outside every wrapped call is the residual,
so the per-layer self times plus the residual add up to the wall time
the caller measured.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = ["LayerClock", "Probe", "installed"]

#: ``after(clock, token, args, result, dur_ns)``: counts taken once a
#: wrapped call returns; ``token`` is what ``before(args)`` returned.
AfterHook = Callable[["LayerClock", Any, tuple, Any, int], None]


class LayerClock:
    """Self-time, entry and sample accumulators over nested layer calls."""

    def __init__(self, now: "Callable[[], int]" = time.perf_counter_ns
                 ) -> None:
        #: Nanosecond clock; tests substitute a fake one.
        self.now = now
        self.self_ns: "dict[str, int]" = {}
        #: Calls into a layer from outside it (nested same-layer calls,
        #: such as one estimator query calling another, count once).
        self.entries: "dict[str, int]" = {}
        self.counts: "dict[str, float]" = {}
        self.samples: "dict[str, list[float]]" = {}
        self._stack: "list[list[Any]]" = []

    def call(self, layer: str, fn: Callable[..., Any], args: tuple,
             kwargs: "dict[str, Any]") -> Any:
        """Run ``fn`` as one call of ``layer`` and charge its self time."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0]
        stack.append(frame)
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.now() - start
            stack.pop()
            self.self_ns[layer] = (self.self_ns.get(layer, 0)
                                   + duration - frame[1])
            if parent is not None:
                parent[1] += duration
            if parent is None or parent[0] != layer:
                self.entries[layer] = self.entries.get(layer, 0) + 1

    def outermost(self, layer: str) -> bool:
        """Whether the innermost open call is the first one of ``layer``.

        Meant for ``after`` hooks, which run once the call has left the
        stack: true when no enclosing call belongs to ``layer``.
        """
        return not self._stack or self._stack[-1][0] != layer

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        """Record one observation of the named quantity."""
        self.samples.setdefault(name, []).append(value)

    def total_self_ns(self) -> int:
        """Self time summed over every layer."""
        return sum(self.self_ns.values())


@dataclass(frozen=True)
class Probe:
    """One entry point to time: method ``owner.name`` belongs to ``layer``."""

    owner: type
    name: str
    layer: str
    before: "Callable[[tuple], Any] | None" = None
    after: "AfterHook | None" = None


def _wrap(clock: LayerClock, probe: Probe,
          fn: Callable[..., Any]) -> Callable[..., Any]:
    layer, before, after = probe.layer, probe.before, probe.after

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        start = clock.now()
        result = clock.call(layer, fn, args, kwargs)
        if after is not None:
            after(clock, token, args, result, clock.now() - start)
        return result

    return timed


@contextlib.contextmanager
def installed(clock: LayerClock,
              probes: "Sequence[Probe]") -> "Iterator[LayerClock]":
    """Wrap every probe's entry point while the block runs."""
    saved: "list[tuple[type, str, Any]]" = []
    try:
        for probe in probes:
            # Only functions defined on the class itself: wrapping an
            # inherited one would shadow it on the subclass for good.
            original = probe.owner.__dict__[probe.name]
            saved.append((probe.owner, probe.name, original))
            setattr(probe.owner, probe.name, _wrap(clock, probe, original))
        yield clock
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
