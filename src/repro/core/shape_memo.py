"""Shape memo: build → recycle → lower once per circuit shape.

The paper's workloads are many traces of a few circuit shapes: Rényi,
virtual distillation and the Fig 9/10 sweeps vary states, seeds and
noise at a fixed (k, n, design, topology).  The circuit a run simulates
depends on its shape alone, so :func:`memoized_shape` keeps one bounded,
lock-guarded LRU of the frozen builds (their live circuits and lowerings
are computed once per build, see
:meth:`~repro.core.protocol.ProtocolBuild.live`) keyed by shape.

Keys carry only what the builder reads — the builder, variant, design,
GHZ mode, readout basis, observable label, k, n and topology — never
states, seeds, shots or noise: this is a shape cache, not a result
cache, and it serves experiments run with the result cache off too.
Concurrent callers asking for the same missing shape get one build: the
first one builds while the others wait for it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable

__all__ = ["memoized_shape", "shape_memo_stats", "clear_shape_memo"]

#: Shapes kept before the least recently used one is evicted.
_SHAPE_MAX = 128

_entries: OrderedDict = OrderedDict()
_building: dict = {}
_lock = threading.Lock()
_stats = {"hits": 0, "builds": 0}


def memoized_shape(key: Hashable, build: Callable[[], object]) -> object:
    """The memoized value of ``key``, calling ``build()`` on a miss.

    A failed build stores nothing, and its waiters retry the build
    themselves.
    """
    while True:
        with _lock:
            if key in _entries:
                _entries.move_to_end(key)
                _stats["hits"] += 1
                return _entries[key]
            event = _building.get(key)
            if event is None:
                event = _building[key] = threading.Event()
                break
        event.wait()
    try:
        value = build()
        with _lock:
            _stats["builds"] += 1
            _entries[key] = value
            while len(_entries) > _SHAPE_MAX:
                _entries.popitem(last=False)
    finally:
        with _lock:
            del _building[key]
        event.set()
    return value


def shape_memo_stats() -> dict:
    """Hits, builds and resident shapes of the memo."""
    with _lock:
        return dict(_stats, shapes=len(_entries))


def clear_shape_memo() -> None:
    """Drop every memoized shape and reset the counters (tests only)."""
    with _lock:
        _entries.clear()
        _stats.update({"hits": 0, "builds": 0})
