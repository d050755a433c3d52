"""Linear assignment (Hungarian algorithm).

Used by the node matching-based loss (paper Def. 1) to find the optimal
one-to-one matching ``M`` between generated and ground-truth API chains,
and by the approximate graph edit distance.
"""

from __future__ import annotations

from typing import Sequence

INF = float("inf")


def hungarian(cost: Sequence[Sequence[float]]) -> tuple[list[int], float]:
    """Solve the rectangular linear assignment problem.

    ``cost[i][j]`` is the cost of assigning row ``i`` to column ``j``.
    Returns ``(assignment, total)`` where ``assignment[i]`` is the column
    assigned to row ``i``, or ``-1`` when rows outnumber columns and row
    ``i`` is left unassigned; ``total`` sums the assigned entries.
    ``min(n_rows, n_cols)`` assignments are always made.

    Implements the O(n^2 m) potentials/augmenting-path formulation, as
    plain lists: at N around 50 a numpy column scan was twice as slow.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix must be rectangular")
    if n > m:
        # transpose, solve, invert the assignment
        transposed = [[cost[i][j] for i in range(n)] for j in range(m)]
        col_assign, total = hungarian(transposed)
        row_assign = [-1] * n
        for j, i in enumerate(col_assign):
            row_assign[i] = j
        return row_assign, total

    # 1-indexed arrays per the classical formulation
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)    # p[j] = row matched to column j (0 = none)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        # columns off the alternating tree (ascending, so the first
        # minimum wins ties) and on it (column 0 is the root's slot)
        free = list(range(1, m + 1))
        used = [0]
        while True:
            i0 = p[j0]
            row = cost[i0 - 1]
            ui = u[i0]
            delta = INF
            j1 = 0
            for j in free:
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 == 0:
                raise ValueError("cost matrix admits no finite assignment")
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = sum(cost[i][assignment[i]] for i in range(n)
                if assignment[i] >= 0)
    return assignment, total
