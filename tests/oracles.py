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


def support_bruteforce(k, n, K, N):
    """Per data symbol i, per position j (1-based): does some group hold both, so j may depend on i?"""
    return [[any(i in Kg and j in Ng for Kg, Ng in zip(K, N)) for j in range(1, n + 1)] for i in range(1, k + 1)]


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


def dmax_witness_by_data(K, N):
    """(dmax, blocks, data) by minimizing over the nonempty data subsets I, not the group subsets.

    The groups of I's symbols form a group set T(I), and I's value |union of R_i| - |I| is at
    least that of T(I)'s whole data set, with equality when I is that data set. So the minimizing
    group sets are the T(I) of the minimizing I, and the witness is the lowest of them. Costs
    2^k steps, whatever the number of groups.
    """
    k = max(max(Kg) for Kg in K)
    groups, reach = [0] * k, [0] * k
    for g, (Kg, Ng) in enumerate(zip(K, N)):
        for i in Kg:
            groups[i - 1] |= 1 << g
            reach[i - 1] |= sum(1 << j for j in Ng)
    union_groups, union_reach = [0] * (1 << k), [0] * (1 << k)
    best, T = None, None
    for I in range(1, 1 << k):
        low = (I & -I).bit_length() - 1
        union_groups[I] = union_groups[I & (I - 1)] | groups[low]
        union_reach[I] = union_reach[I & (I - 1)] | reach[low]
        value = union_reach[I].bit_count() - I.bit_count()
        if best is None or (value, union_groups[I]) < (best, T):
            best, T = value, union_groups[I]
    data = tuple(i + 1 for i in range(k) if groups[i] | T == T)
    return 1 + best, tuple(g + 1 for g in range(len(K)) if T >> g & 1), data


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


def nested_canonical(q, K, N):
    """The two-group nested generator, assembled in the original canonical layout.

    The group of smaller redundancy (the first when they tie) is ordered
    first. Rows run over its private data, the shared data, then the other
    group's private data, each by index; columns over its positions, then
    the other's. The array is [[U, 0], [A, B], [0, V]]: [U; A] is the first
    group's k_f x n_f Vandermonde matrix on the points 1..n_f, B the last t
    rows of the second's and V its first k_s - t rows. Returns the rows, or
    None when q < max(n1, n2), t >= min(k1, k2) or t exceeds the larger
    redundancy plus one.
    """
    sets = [set(Kg) for Kg in K]
    k = max(sets[0] | sets[1])
    t = len(sets[0] & sets[1])
    swapped = len(N[0]) - len(K[0]) > len(N[1]) - len(K[1])
    first, second = (1, 0) if swapped else (0, 1)
    nf, kf, ns, ks = len(N[first]), len(K[first]), len(N[second]), len(K[second])
    if q < max(nf, ns) or t >= min(kf, ks) or t > ns - ks + 1:
        return None
    Wf = [[pow(p, i, q) for p in range(1, nf + 1)] for i in range(kf)]
    Ws = [[pow(p, i, q) for p in range(1, ns + 1)] for i in range(ks)]
    canonical = [row + [0] * ns for row in Wf[: kf - t]]
    canonical += [Wf[kf - t + ell] + Ws[ks - t + ell] for ell in range(t)]
    canonical += [[0] * nf + row for row in Ws[: ks - t]]
    data_order = sorted(sets[first] - sets[second]) + sorted(sets[0] & sets[1]) + sorted(sets[second] - sets[first])
    columns = sorted(N[first]) + sorted(N[second])
    rows = [[0] * (nf + ns) for _ in range(k)]
    for row, i in zip(canonical, data_order):
        for value, j in zip(row, columns):
            rows[i - 1][j - 1] = value
    return rows


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


def local_subcode_bound(q, K, N, rows):
    """min over group sets A of the sum, over g in A, of the distance of G[K_g & I_A, N_g].

    I_A holds the data symbols all of whose groups are in A; a set A in
    which some group keeps no symbol of I_A is skipped. Every nonempty A is
    visited and every subcode distance is found by enumeration, 0 when its
    rows are dependent. K and N are lists of 1-based index lists, rows the
    k x n generator.
    """
    m = len(K)
    k = max(max(Kg) for Kg in K)
    distance = {}  # (group, its rows) -> subcode distance
    best = None
    for A in range(1, 1 << m):
        inside = {i for i in range(1, k + 1) if all(A >> g & 1 for g in range(m) if i in K[g])}
        chosen = [g for g in range(m) if A >> g & 1]
        if any(not inside & set(K[g]) for g in chosen):
            continue
        total = 0
        for g in chosen:
            key = (g, tuple(sorted(inside & set(K[g]))))
            if key not in distance:
                distance[key] = min_weight_bruteforce(q, [[rows[i - 1][j - 1] for j in N[g]] for i in key[1]])
            total += distance[key]
        if best is None or total < best:
            best = total
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


def lemma3_eliminate(q, omega, ell, t, r, T):
    """Lemma 3's (a_star, b_star) from the rref of its system, or a message naming how its kernel degenerates.

    The t x (t+1) system has rows (w^j)^e for j = r..r+t-1 over the exponents e in {0..t-ell} + {T..T+ell-1}.
    Only a one-dimensional kernel whose vector has no zero coordinate is a solution; it is scaled so a_star(0) = 1.
    """
    exponents = list(range(t - ell + 1)) + list(range(T, T + ell))
    reduced, _, pivots = rref(q, [[pow(omega, j * e, q) for e in exponents] for j in range(r, r + t)])
    free = [c for c in range(t + 1) if c not in pivots]
    if len(free) != 1:
        return f"kernel dimension {len(free)}, expected 1; is omega primitive?"
    vec = [1 if c == free[0] else 0 for c in range(t + 1)]
    for row, c in zip(reduced, pivots):
        vec[c] = -row[free[0]] % q
    if 0 in vec:
        return "kernel vector has a zero coordinate"
    scale = pow(vec[0], q - 2, q)
    vec = [v * scale % q for v in vec]
    return tuple(vec[: t - ell + 1]), tuple(vec[t - ell + 1 :])


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
