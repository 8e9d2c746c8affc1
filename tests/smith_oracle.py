"""The integer routines that :class:`bnsr.linalg.SmithForm` replaced, kept
verbatim as test oracles: each factors its matrix afresh and handles an
empty matrix its own way.  ``mat_mul`` multiplies dense integer matrices.
"""

from math import gcd
from typing import Sequence

from bnsr.homology import FiniteComplex
from bnsr.linalg import smith_normal_form


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                Oi = out[i]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def integer_solve(M: Sequence[Sequence[int]], z: Sequence[int]):
    """An integer solution y of M y = z, or None."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0 or n == 0:
        return ([0] * n) if all(x == 0 for x in z) else None
    factors, U, V = smith_normal_form(M)
    w = [sum(U[i][j] * z[j] for j in range(m)) for i in range(m)]
    x = [0] * n
    for i in range(m):
        d = factors[i] if i < len(factors) else 0
        if d == 0:
            if w[i] != 0:
                return None
        elif w[i] % d != 0:
            return None
        elif i < n:
            x[i] = w[i] // d
    return [sum(V[i][j] * x[j] for j in range(n)) for i in range(n)]


def integer_solvable(M: Sequence[Sequence[int]], z: Sequence[int]) -> bool:
    """Whether M y = z has an integer solution."""
    if not M:
        return all(x == 0 for x in z)
    return integer_solve(M, z) is not None


def integer_kernel_basis(M: Sequence[Sequence[int]]):
    """Basis of the integer kernel {y : M y = 0} (columns of M index y)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    factors, U, V = smith_normal_form(M)
    basis = []
    for j in range(n):
        d = factors[j] if j < len(factors) else 0
        if d == 0:
            basis.append([V[i][j] for i in range(n)])
    return basis


def class_order(M: Sequence[Sequence[int]], z: Sequence[int]):
    """Order of z modulo the integer column span of M.

    Returns ("zero", 1) when z is in the span, ("torsion", k) when k >= 2 is
    minimal with k*z in the span, and ("infinite", 0) otherwise.
    """
    m = len(M)
    if m == 0:
        return ("zero", 1) if all(x == 0 for x in z) else ("infinite", 0)
    factors, U, _ = smith_normal_form(M)
    return snf_class_order(factors, U, z)


def snf_class_order(factors: Sequence[int], U: Sequence[Sequence[int]], z: Sequence[int]):
    """:func:`class_order` from a Smith normal form (factors, U, V) of M.

    Factoring M once serves every z tested against the same span.
    """
    m = len(U)
    w = [sum(U[i][j] * z[j] for j in range(m)) for i in range(m)]
    k = 1
    for i in range(m):
        d = factors[i] if i < len(factors) else 0
        if d == 0:
            if w[i] != 0:
                return ("infinite", 0)
        elif w[i] % d != 0:
            g = gcd(d, w[i] % d)
            step = d // g
            k = k * step // gcd(k, step)
    return ("zero", 1) if k == 1 else ("torsion", k)


def _augmented_cycles(C_t: FiniteComplex):
    """Kernel of the augmentation row: differences against a base vertex."""
    ring = C_t.ring
    verts = C_t.basis.get(0, [])
    eps = [col.get(0, ring.zero()) for col in C_t.columns.get(0, [])]
    if not verts:
        return []
    if not eps:
        return [{key: ring.one()} for key in verts]
    pivot = next((i for i, e in enumerate(eps) if not ring.is_zero(e)), None)
    if pivot is None:
        return [{key: ring.one()} for key in verts]
    cycles = []
    for i, key in enumerate(verts):
        if i == pivot:
            continue
        e = eps[i]
        if ring.is_zero(e):
            cycles.append({key: ring.one()})
        else:
            # e_i * pivot_vertex - e_pivot * vertex_i spans the kernel with the pivot
            cycles.append({verts[pivot]: e, key: ring.neg(eps[pivot])})
    return cycles
