"""Pause Python's cyclic garbage collector over a compile.

A cold compile allocates hundreds of thousands of container objects —
nodes, tensors, descriptor dicts, interned expression keys — and almost
all of them are still referenced when it returns. Every generation-0 pass
the allocation count triggers meanwhile traverses young objects that are
all alive, and promotes them so that the older generations traverse them
again. On one cold ``nmt_train`` build + ``verify(equiv=True)`` the
collector ran 511 times, freed 0 objects and took 15–16% of the build
(DESIGN.md §8).

The public entries that build, rewrite, plan, lower or verify therefore
run with the collector off. Scopes nest and may overlap across threads:
one depth count under a lock (module state, because the collector it
guards is process state), where the outermost entry records whether
the collector was enabled and disables it, and the outermost exit
re-enables it only if it was. A nested entry costs one counter bump.
Nothing is collected on exit; the next ordinary generation-0 pass
examines the compile's survivors once.

A child forked while a scope is open resets the count and gets the
recorded state back, so a rank forked in the middle of a compile
collects normally; scopes it inherited from the parent end as no-ops.
"""

from __future__ import annotations

import functools
import gc
import os
import threading
from typing import Any, Callable, TypeVar, cast

__all__ = ["collector_paused", "pauses_collector"]

F = TypeVar("F", bound=Callable[..., Any])

_lock = threading.Lock()
#: open scopes, over all threads
_depth = 0
#: whether the outermost open scope found the collector enabled
_restore = False
#: bumped in a forked child: scopes opened before the fork end as no-ops
_epoch = 0


def _enter() -> int:
    global _depth, _restore
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
        return _epoch


def _leave(epoch: int) -> None:
    global _depth
    with _lock:
        if epoch != _epoch:
            return
        _depth -= 1
        if _depth == 0 and _restore:
            gc.enable()


def _reset_in_child() -> None:
    global _lock, _depth, _epoch
    # The parent's lock may have been held by a thread the child lacks.
    _lock = threading.Lock()
    if _depth and _restore:
        gc.enable()
    _depth = 0
    _epoch += 1


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


class collector_paused:
    """``with collector_paused():`` — the collector is off inside."""

    __slots__ = ("_epoch",)

    def __enter__(self) -> "collector_paused":
        self._epoch = _enter()
        return self

    def __exit__(self, *exc: object) -> None:
        _leave(self._epoch)


def pauses_collector(fn: F) -> F:
    """Decorator: ``fn`` runs inside a :class:`collector_paused` scope."""

    @functools.wraps(fn)
    def paused(*args: Any, **kwargs: Any) -> Any:
        epoch = _enter()
        try:
            return fn(*args, **kwargs)
        finally:
            _leave(epoch)

    return cast(F, paused)
