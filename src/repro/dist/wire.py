"""Message framing shared by both channel backends.

A message on the wire is ``(generation, seq, tag, payload)``:

* ``generation`` — the ring incarnation. Bumped by every successful
  :meth:`~repro.dist.group.ProcessGroup.reform`; messages from an older
  generation are leftovers of an aborted collective and are discarded on
  receive, messages from a *newer* generation are stashed (they belong
  to a peer that already re-formed and raced ahead to the next
  collective or the reform handshake itself).
* ``seq`` — the collective's sequence number inside its generation.
  Every rank runs the same collectives in the same order, so a mismatch
  is a protocol bug, not a timing accident; it raises immediately.
* ``tag`` — a short tuple naming the step inside the collective, e.g.
  ``("ar", chunk_index, "reduce")``. Matched exactly.
* ``payload`` — a numpy array or a small picklable object.

Between processes an array payload does not travel inside the pickle: the
pipe carries the message with an :class:`ArrayHeader` in the payload's
place, then the array's bytes as one raw buffer the receiver reads
straight into the destination array (see
:class:`~repro.dist.channels.PipeChannel`).
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

__all__ = ["ArrayHeader", "Message", "copy_message"]


class Message(NamedTuple):
    generation: int
    seq: int
    tag: tuple
    payload: Any


class ArrayHeader(NamedTuple):
    """Stands in for an array payload whose bytes follow as a raw buffer."""

    dtype: str
    shape: tuple[int, ...]


def copy_message(message: Any) -> Any:
    """Deep-copy array payloads (thread backend's pass-by-value send)."""
    if isinstance(message, Message) and isinstance(message.payload, np.ndarray):
        return message._replace(payload=message.payload.copy())
    return message
