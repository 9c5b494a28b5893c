"""Fill-once memo tables.

Rings, ideals, lattices and ring contexts derive facts lazily and keep
them in plain dicts.  ``once`` is the one way such a fact is filled: the
first lookup computes and stores it, and every later lookup reads the
stored value, so each fact is computed once per object and the work a
run does repeats exactly.
"""


def once(table, key, compute):
    """table[key], set to compute() on the first lookup.

    A stored None is a value, not a miss, and compute may fill other keys
    of the same table.
    """
    try:
        return table[key]
    except KeyError:
        pass
    value = table[key] = compute()
    return value
