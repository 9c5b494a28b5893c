"""Fill-once memo tables.

Rings, ideals, lattices and ring contexts derive facts lazily and keep
them in plain dicts.  ``once`` is the one way such a fact is filled: the
first lookup computes and stores it, and every later lookup reads the
stored value, so each fact is computed once per object and the work a
run does repeats exactly.  ``fact`` makes a method such a property, and
``readonly`` locks an array that is shared as a fact.
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


def readonly(array):
    array.setflags(write=False)
    return array


def fact(compute):
    """A property whose value is compute(obj), filled once in obj._facts."""
    name = compute.__name__

    def get(obj):
        if name not in obj._facts:
            once(obj._facts, name, lambda: compute(obj))
        return obj._facts[name]

    return property(get, doc=compute.__doc__)
