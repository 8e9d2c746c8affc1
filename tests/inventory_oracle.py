"""Readings of a window inventory (``_WindowInventory``) key by key, in
enumeration order, for the tests that compare it with a fresh enumeration:
each key's value from ``levels`` and each key's translated boundary from
``_columns``.
"""

from bnsr.homology import _WindowInventory


def inventory_values(inv: _WindowInventory, d: int) -> list:
    """The value of each key of ``inv.keys(d)``, read off ``inv.levels(d)``."""
    out = [None] * len(inv.keys(d))
    for val, positions in inv.levels(d):
        for i in positions:
            out[i] = val
    return out


def inventory_terms(inv: _WindowInventory, d: int) -> list:
    """The translated boundary terms ``[((g*h, y), c), ...]`` of each key of
    ``inv.keys(d)``, read off ``inv._columns(d)`` through the keys of degree
    d - 1."""
    rows = inv.keys(d - 1)
    return [[(rows[r], c) for r, c in col] for col in inv._columns(d)]


def filling_columns(F, v, degree: int, W) -> list:
    """Candidate filling columns (key, boundary vector, value) at a degree, in enumeration order."""
    inv = _WindowInventory(F, W, v)
    return [
        (key, dict(terms), val)
        for key, terms, val in zip(inv.keys(degree), inventory_terms(inv, degree), inventory_values(inv, degree))
    ]
