"""Per-layer ledger: timing wrappers and span arithmetic for traced passes.

Layers are measured from outside the program, in two ways:

* :class:`Timed` swaps a public callable for a wrapper that records the
  duration (and optionally a value derived from the result) of every call
  while the ``with`` block is open, then puts the original back.  It is
  used for the calls the engine and service do not span themselves.
* The span helpers below reduce the events of a
  :class:`repro.obs.Tracer` (``acquire_chunk``, ``acquire_stage``,
  ``fold_chunk``, ``consume``, ``store_append``, ``checkpoint``) to
  totals and self times.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Timed:
    """Record every call to ``owner.<name>`` while the block is open.

    ``observe(result, args, kwargs)``, when given, maps each call to a
    value stored in :attr:`values` (e.g. whether a cache lookup hit).
    Lists are appended from any thread; ``list.append`` is atomic.
    """

    def __init__(self, owner, name: str, observe: Optional[Callable] = None):
        self.owner = owner
        self.name = name
        self.observe = observe
        self.seconds: List[float] = []
        self.values: List[object] = []
        self._original = None

    def __enter__(self) -> "Timed":
        original = getattr(self.owner, self.name)
        self._original = original

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - started)
            if self.observe is not None:
                self.values.append(self.observe(result, args, kwargs))
            return result

        setattr(self.owner, self.name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.owner, self.name, self._original)

    @property
    def calls(self) -> int:
        return len(self.seconds)

    @property
    def total(self) -> float:
        return sum(self.seconds)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


def spans(events: List[dict], name: str, origin: Optional[str] = None) -> List[dict]:
    """Events called ``name``; ``origin`` is ``"parent"`` or ``"worker"``."""
    out = []
    for event in events:
        if event["name"] != name:
            continue
        if origin is not None and not event["origin"].startswith(origin):
            continue
        out.append(event)
    return out


def total(events: List[dict], name: str, origin: Optional[str] = None) -> float:
    return sum(event["dur_s"] for event in spans(events, name, origin))


def by_attr(events: List[dict], name: str, attr: str) -> Dict[str, float]:
    """Summed duration of ``name`` spans grouped by one attribute."""
    sums: Dict[str, float] = defaultdict(float)
    for event in spans(events, name):
        sums[str(event["attrs"].get(attr))] += event["dur_s"]
    return dict(sums)


def acquire_breakdown(events: List[dict]) -> List[Tuple[float, float]]:
    """Per chunk: the ``acquire_chunk`` duration and its ``acquire_stage`` total.

    The difference is the span's self time: building the device and the
    acquisition's own bookkeeping.  Span ids are unique per origin (one
    origin per chunk), so children are matched on both.
    """
    child_sum: Dict[tuple, float] = defaultdict(float)
    for event in spans(events, "acquire_stage"):
        child_sum[(event["origin"], event["parent_id"])] += event["dur_s"]
    return [
        (event["dur_s"], child_sum[(event["origin"], event["span_id"])])
        for event in spans(events, "acquire_chunk")
    ]
