"""Orthogonal lifts of positive contractions in the finite commutative model.

``orthogonal_lifts`` is the lifting step behind the paper's tower
constructions, written with plain ``Fraction`` dicts: given functions whose
pairwise products vanish off J, it returns pairwise orthogonal functions
below them that agree with them off J.  No route in ``partact`` needs it;
tests check it on hand-made and random inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class PreconditionViolated(ValueError):
    def __init__(self, detail: str, point):
        self.point = point
        super().__init__(f"{detail} (witness point {point})")


def orthogonal_lifts(
    carrier: Iterable[int],
    J: Iterable[int],
    ideals: Sequence[frozenset[int]],
    xs: Sequence[Mapping[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """Orthogonalize positive contractions without moving them off J.

    Given x_j supported in A_j with all pairwise products supported inside J,
    returns pairwise orthogonal y_j <= x_j with supp y_j in A_j and
    y_j = x_j off J.  Base case subtracts positive parts; the inductive step
    peels the last function off the sum of the others.
    """
    X = frozenset(carrier)
    Jset = frozenset(J)
    if not Jset <= X:
        raise PreconditionViolated("J must be a subset of the carrier", sorted(Jset - X)[0])
    n = len(xs)
    if len(ideals) != n:
        raise ValueError("need one ideal per function")
    funcs = [{p: Fraction(v) for p, v in x.items() if Fraction(v) != 0} for x in xs]
    for j, (x, A_j) in enumerate(zip(funcs, ideals)):
        for p, v in x.items():
            if p not in A_j:
                raise PreconditionViolated(f"x_{j} is supported outside its ideal", p)
            if not (0 <= v <= 1):
                raise PreconditionViolated(f"x_{j} is not a [0, 1]-valued contraction", p)
    for j in range(n):
        for k in range(j + 1, n):
            for p in set(funcs[j]) & set(funcs[k]):
                if p not in Jset and funcs[j][p] * funcs[k][p] != 0:
                    raise PreconditionViolated(
                        f"x_{j} * x_{k} does not vanish off J", p
                    )
    return _orthogonalize(funcs, X)


def _pos_part(f: Mapping[int, Fraction], g: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out = {}
    for p in set(f) | set(g):
        v = f.get(p, Fraction(0)) - g.get(p, Fraction(0))
        if v > 0:
            out[p] = v
    return out


def _orthogonalize(xs: list[dict[int, Fraction]], X: frozenset[int]) -> list[dict[int, Fraction]]:
    n = len(xs)
    if n == 0:
        return []
    if n == 1:
        return [dict(xs[0])]
    if n == 2:
        return [_pos_part(xs[0], xs[1]), _pos_part(xs[1], xs[0])]
    head, last = xs[:-1], xs[-1]
    total: dict[int, Fraction] = {}
    for f in head:
        for p, v in f.items():
            total[p] = total.get(p, Fraction(0)) + v
    y_last = _pos_part(last, total)
    trimmed = [_pos_part(f, last) for f in head]
    ys = _orthogonalize(trimmed, X)
    return ys + [y_last]
