"""Independent brute-force oracles the library is checked against.

Everything here works on plain ints and lists, deliberately sharing no
code with the package under test.
"""

from itertools import product


def dmax_bruteforce(K, N):
    """Distance bound by direct minimization over all nonempty data subsets.

    K and N are lists of 1-based index lists. Positions are bitmasks so
    the union over a subset I is an or-reduction; subsets are walked in
    binary counting order with the union built from the subset minus its
    lowest bit.
    """
    k = max(max(Kg) for Kg in K)
    group_mask = []
    for Ng in N:
        mask = 0
        for j in Ng:
            mask |= 1 << j
        group_mask.append(mask)
    R = [0] * k
    for Kg, gm in zip(K, group_mask):
        for i in Kg:
            R[i - 1] |= gm
    union = [0] * (1 << k)
    best = None
    for I in range(1, 1 << k):
        low = (I & -I).bit_length() - 1
        union[I] = union[I & (I - 1)] | R[low]
        value = union[I].bit_count() - I.bit_count()
        if best is None or value < best:
            best = value
    return 1 + best


def dmax_witness_scan(K, N):
    """(dmax, blocks, data) of the lowest-numbered minimizing group subset.

    Walks the nonempty group subsets T in increasing order. The data set of
    T holds the symbols all of whose groups lie in T; a later T replaces the
    best only when its value is strictly smaller.
    """
    m = len(K)
    k = max(max(Kg) for Kg in K)
    groups = [[g for g in range(m) if i in K[g]] for i in range(1, k + 1)]
    best = None
    for T in range(1, 1 << m):
        members = [i + 1 for i in range(k) if all(T >> g & 1 for g in groups[i])]
        if members:
            value = sum(len(N[g]) for g in range(m) if T >> g & 1) - len(members)
            if best is None or value < best[0]:
                best = (value, T, members)
    value, T, members = best
    return 1 + value, tuple(g + 1 for g in range(m) if T >> g & 1), tuple(members)


def dmax_two_subcodes(K, N):
    """Closed-form bound 1 + t + min(n1-k1, n2-k2) for two groups.

    K and N are the two groups' data and position lists. Valid only when
    t < k and additionally t < min(k1, k2) or the two redundancies are
    equal; outside that range the formula can differ from the true bound,
    so the input is refused with ValueError.
    """
    (K1, K2), (N1, N2) = K, N
    k1, k2, n1, n2 = len(K1), len(K2), len(N1), len(N2)
    t = len(set(K1) & set(K2))
    if t >= len(set(K1) | set(K2)):
        raise ValueError(f"shared data count t={t} must be below k")
    if not (t < min(k1, k2) or n1 - k1 == n2 - k2):
        raise ValueError(f"need t < min(k1, k2) or equal redundancies; got t={t}, k1={k1}, k2={k2}")
    return 1 + t + min(n1 - k1, n2 - k2)


def min_weight_bruteforce(q, rows):
    """Minimum codeword weight by enumerating every nonzero message."""
    k = len(rows)
    n = len(rows[0])
    best = n + 1
    for x in product(range(q), repeat=k):
        if not any(x):
            continue
        weight = 0
        for j in range(n):
            acc = 0
            for i in range(k):
                acc += x[i] * rows[i][j]
            if acc % q:
                weight += 1
        if weight < best:
            best = weight
    return best


def rref(q, rows):
    """Reduced row-echelon form of a list of rows over GF(q), q prime.

    Schoolbook elimination on Python ints; the pivot is the first nonzero
    entry at or below the current pivot row, in column order. Returns
    (reduced rows, rank, pivot columns).
    """
    rows = [[v % q for v in row] for row in rows]
    cols = len(rows[0]) if rows else 0
    pivot_cols = []
    pr = 0
    for c in range(cols):
        if pr == len(rows):
            break
        src = next((r for r in range(pr, len(rows)) if rows[r][c]), None)
        if src is None:
            continue
        rows[pr], rows[src] = rows[src], rows[pr]
        piv_inv = pow(rows[pr][c], q - 2, q)
        rows[pr] = [v * piv_inv % q for v in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [(v - factor * p) % q for v, p in zip(rows[r], rows[pr])]
        pivot_cols.append(c)
        pr += 1
    return rows, pr, pivot_cols


def oracle_solve(q, rows, b):
    """x with x A = b from the rref of the augmented transpose, or "Inconsistent" or "Underdetermined"."""
    cols = len(b)
    aug = [[rows[i][j] for i in range(len(rows))] + [b[j]] for j in range(cols)]
    reduced, rk, pivots = rref(q, aug)
    if len(rows) in pivots:
        return "Inconsistent"
    if rk < len(rows):
        return "Underdetermined"
    return [reduced[r][len(rows)] for r in range(len(rows))]


def det(q, rows):
    """Determinant over GF(q) by elimination with swap-sign tracking."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError(f"determinant of a non-square {size}-row matrix")
    rows = [[v % q for v in row] for row in rows]
    sign = 1
    for c in range(size):
        src = next((r for r in range(c, size) if rows[r][c]), None)
        if src is None:
            return 0
        if src != c:
            rows[c], rows[src] = rows[src], rows[c]
            sign = -sign
        piv_inv = pow(rows[c][c], q - 2, q)
        for r in range(c + 1, size):
            if rows[r][c]:
                factor = rows[r][c] * piv_inv % q
                rows[r] = [(v - factor * p) % q for v, p in zip(rows[r], rows[c])]
    prod = 1
    for i in range(size):
        prod = prod * rows[i][i] % q
    return prod * sign % q


def structure_violation(k, n, K, N):
    """Name of the error a structure over data 1..k and positions 1..n must raise, or None.

    The invariants in the order they are checked: matching nonempty group
    lists; each data group nonempty and inside 1..k, and together covering
    1..k; each position group nonempty, inside 1..n and disjoint from the
    groups before it, and together covering 1..n; |N_i| >= |K_i| per group.
    """
    if len(K) != len(N) or not K:
        return "CoverageGap"
    data = set(range(1, k + 1))
    if any(not Kg or not set(Kg) <= data for Kg in K) or set().union(*map(set, K)) != data:
        return "CoverageGap"
    positions = set(range(1, n + 1))
    owned = set()
    for Ng in N:
        if not Ng or not set(Ng) <= positions:
            return "CoverageGap"
        if owned & set(Ng):
            return "OverlapN"
        owned |= set(Ng)
    if owned != positions:
        return "CoverageGap"
    if any(len(set(Ng)) < len(set(Kg)) for Kg, Ng in zip(K, N)):
        return "GroupTooSmall"
    return None
