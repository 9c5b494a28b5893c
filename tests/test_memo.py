"""Fill-once memo tables."""

from ringlab.memo import once


def test_once_keys_are_independent_and_reentrant():
    table = {}
    assert once(table, "a", lambda: once(table, "b", lambda: 2) + 1) == 3
    assert table == {"a": 3, "b": 2}
    calls = []
    for _ in range(2):          # a stored None is a value, not a miss
        assert once(table, "n", lambda: calls.append(1)) is None
    assert calls == [1]
