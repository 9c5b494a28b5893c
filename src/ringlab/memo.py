"""Fill-once memo tables.

The law checks run on a thread pool and share rings, ideals, lattices
and ring contexts.  Each lazily derived fact on them is filled through
``once``, so it is computed exactly once however the threads interleave,
and the work a run does repeats exactly.
"""

import threading

_LOCK = threading.RLock()


def once(table, key, compute):
    """table[key], set to compute() by the first caller only."""
    try:
        return table[key]
    except KeyError:
        pass
    with _LOCK:
        if key not in table:
            table[key] = compute()
        return table[key]
