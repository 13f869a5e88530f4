"""The brute-force positive-tolerance tower oracle.

``oracle_towers_exist`` searches raw towers on a value grid, point by point,
without the identity-level reduction or the orbit argument of
``partact.rokhlin``; tests sweep it against the exact solver on tiny
instances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from partact.pactions import PartialAction


def _incoming_arrows(pa: PartialAction) -> dict[int, list[tuple[int, int]]]:
    """For each point x, the list of (g, source) with theta_g(source) = x."""
    incoming: dict[int, list[tuple[int, int]]] = {x: [] for x in pa.carrier}
    for g in pa.group.elements():
        for y, x in pa.maps[g].items():
            incoming[x].append((g, y))
    return incoming


DEFAULT_VALUE_GRID = tuple(Fraction(k, 8) for k in range(9))


class OracleBudgetExceeded(RuntimeError):
    pass


def oracle_towers_exist(
    pa: PartialAction,
    d: int,
    eps: Fraction,
    value_grid: Sequence[Fraction] = DEFAULT_VALUE_GRID,
    node_cap: int = 2_000_000,
) -> bool:
    """Brute-force the raw tower conditions at a fixed epsilon.

    Searches all towers f_g^(j) with values on the grid, independently per
    point, against the conditions instantiated with indicator witnesses:

      (1) |f_h(y) - f_{gh}(theta_g(y))| < eps along every arrow,
      (2) pointwise per-level products below eps,
      (3) pointwise total mass within eps of 1.

    This does not assume the identity-level reduction, so it independently
    validates the exact solver's epsilon = 0 characterization on small
    instances.
    """
    eps = Fraction(eps)
    G = pa.group
    points = sorted(pa.carrier)
    if not points:
        return True
    incoming = _incoming_arrows(pa)
    member_groups = {x: sorted(g for g in G.elements() if x in pa.domain(g)) for x in points}
    grid = sorted(Fraction(v) for v in value_grid)

    local_cache: dict[int, list[tuple[tuple[Fraction, ...], ...]]] = {}

    def local_assignments(x: int) -> list[tuple[tuple[Fraction, ...], ...]]:
        """All per-level value tuples at x satisfying (2) and (3)."""
        if x in local_cache:
            return local_cache[x]
        gs = member_groups[x]
        per_level: list[tuple[Fraction, ...]] = []

        def level_options(prefix: list[Fraction]):
            if len(prefix) == len(gs):
                per_level.append(tuple(prefix))
                return
            for v in grid:
                if all(v * w < eps for w in prefix):
                    prefix.append(v)
                    level_options(prefix)
                    prefix.pop()

        level_options([])
        results: list[tuple[tuple[Fraction, ...], ...]] = []

        def across_levels(chosen: list[tuple[Fraction, ...]], total: Fraction):
            if len(chosen) == d + 1:
                if abs(total - 1) < eps:
                    results.append(tuple(chosen))
                return
            remaining = d + 1 - len(chosen)
            max_level = len(gs) * grid[-1]
            if total - eps >= 1 or total + remaining * max_level <= 1 - eps:
                return
            for tup in per_level:
                across_levels(chosen + [tup], total + sum(tup))

        across_levels([], Fraction(0))
        local_cache[x] = results
        return results

    nodes = 0
    assignment: dict[int, tuple[tuple[Fraction, ...], ...]] = {}

    def get_value(x: int, j: int, g: int) -> Fraction:
        gs = member_groups[x]
        if g not in pa.domain_tuple(x):
            return Fraction(0)
        return assignment[x][j][gs.index(g)]

    def consistent(x: int) -> bool:
        # Raw condition (1) along arrows between x and already-assigned points.
        for g, y in incoming[x]:
            if y not in assignment:
                continue
            for h in G.elements():
                gh = G.mul(g, h)
                for j in range(d + 1):
                    lhs = get_value(y, j, h) if h in pa.domain_tuple(y) else Fraction(0)
                    rhs = get_value(x, j, gh) if gh in pa.domain_tuple(x) else Fraction(0)
                    if abs(lhs - rhs) >= eps:
                        return False
        # Outgoing arrows from x to assigned points.
        for g in G.elements():
            y = pa.maps[g].get(x)
            if y is None or y == x or y not in assignment:
                continue
            for h in G.elements():
                gh = G.mul(g, h)
                for j in range(d + 1):
                    lhs = get_value(x, j, h) if h in pa.domain_tuple(x) else Fraction(0)
                    rhs = get_value(y, j, gh) if gh in pa.domain_tuple(y) else Fraction(0)
                    if abs(lhs - rhs) >= eps:
                        return False
        return True

    def search(idx: int) -> bool:
        nonlocal nodes
        if idx == len(points):
            return True
        x = points[idx]
        for option in local_assignments(x):
            nodes += 1
            if nodes > node_cap:
                raise OracleBudgetExceeded(f"oracle exceeded {node_cap} nodes")
            assignment[x] = option
            if consistent(x) and search(idx + 1):
                return True
            del assignment[x]
        return False

    return search(0)
