"""Fill-once memo tables shared by threads."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ringlab.memo import once


def test_once_computes_each_key_once_across_threads():
    calls = []
    start = threading.Barrier(8)

    def compute():
        calls.append(1)
        time.sleep(0.01)
        return None             # a stored None is a value, not a miss

    def fill(_):
        start.wait()
        return once(table, "k", compute)

    table = {}
    with ThreadPoolExecutor(max_workers=8) as pool:
        assert list(pool.map(fill, range(8))) == [None] * 8
    assert once(table, "k", compute) is None
    assert calls == [1]


def test_once_keys_are_independent_and_reentrant():
    table = {}
    assert once(table, "a", lambda: once(table, "b", lambda: 2) + 1) == 3
    assert table == {"a": 3, "b": 2}
