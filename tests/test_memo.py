"""Fill-once memo tables."""

import numpy as np

from ringlab.memo import fact, once, readonly


def test_once_keys_are_independent_and_reentrant():
    table = {}
    assert once(table, "a", lambda: once(table, "b", lambda: 2) + 1) == 3
    assert table == {"a": 3, "b": 2}
    calls = []
    for _ in range(2):          # a stored None is a value, not a miss
        assert once(table, "n", lambda: calls.append(1)) is None
    assert calls == [1]


def test_fact_computes_once_per_object():
    calls = []

    class Thing:
        def __init__(self):
            self._facts = {}

        @fact
        def value(self):
            """The value."""
            calls.append(self)

    a, b = Thing(), Thing()
    assert a.value is None and a.value is None and b.value is None
    assert calls == [a, b] and a._facts == {"value": None}
    assert Thing.value.__doc__ == "The value."
    arr = readonly(np.zeros(2))
    assert not arr.flags.writeable
