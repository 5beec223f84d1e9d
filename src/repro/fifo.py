"""Thread-safe inserts into the process-wide bounded FIFO caches.

Several process-wide memos (scheduler deltas and their set views, engine
edge bitmasks, cohort bulk decodes) are plain dicts capped at a fixed size
by evicting the oldest entry.  Readers use lock-free ``dict.get``; every
mutation goes through :func:`fifo_insert` (or holds :data:`FIFO_LOCK`), so
two threads evicting at once can never pick the same oldest key.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional

#: Guards every mutation of a bounded FIFO cache.  One lock for all caches:
#: inserts are rare (misses only) and short.
FIFO_LOCK = threading.Lock()


def fifo_insert(
    table: Dict[Hashable, Any], key: Hashable, value: Any, maxsize: Optional[int]
) -> None:
    """Insert ``key -> value``, evicting the oldest entries to stay under
    ``maxsize`` (``None`` means unbounded)."""
    with FIFO_LOCK:
        if maxsize is not None:
            while table and len(table) >= maxsize:
                del table[next(iter(table))]
        table[key] = value
