"""Small dense linear algebra over the prime field Z_p.

Everything works on numpy int64 arrays with entries reduced mod p.
p is assumed prime; inverses come from pow(a, -1, p), which raises
ValueError for a non-unit.
"""

from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def rref_mod(a, p: int):
    """Row-reduced echelon form mod p; returns (R, pivot_columns)."""
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        below = np.flatnonzero(r[lead:, col])
        if not below.size:
            continue
        pivot = lead + below[0]
        if pivot != lead:
            r[[lead, pivot]] = r[[pivot, lead]]
        # scale the pivot row to 1 and clear the column in every row with
        # one broadcast; that empties the pivot row, which is then put back
        row = r[lead] * pow(int(r[lead, col]), -1, p) % p
        r = (r - r[:, col, None] * row) % p
        r[lead] = row
        pivots.append(col)
        lead += 1
    return r, pivots


def nullspace_mod(a, p: int):
    """Basis of the right null space mod p, as rows of the result."""
    a = np.array(a, dtype=np.int64) % p
    _, cols = a.shape
    r, pivots = rref_mod(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, col in enumerate(pivots):
            v[col] = (-r[row, f]) % p
        basis.append(v)
    if basis:
        return np.array(basis, dtype=np.int64)
    return np.zeros((0, cols), dtype=np.int64)

