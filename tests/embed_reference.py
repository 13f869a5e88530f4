"""Finite partial actions as geometry-free grid instances.

``embed_certificate`` puts an exact Rokhlin certificate on the grid side, so
tests can score it with ``gridtowers.residual`` and run ``search_towers`` on
finite partial actions with several group elements.  No route in
``partact`` needs it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from fraction_reference import as_family, as_table, derived_towers

from partact.gridtowers import GridAction
from partact.pactions import PartialAction

F1 = Fraction


def embed_certificate(pa: PartialAction, levels: Sequence[Mapping[int, Fraction]]):
    """View a finite partial action as a geometry-free grid instance.

    Each point is its own chain component, so the Lipschitz band is vacuous;
    witnesses are the indicator basis together with the constant 1.
    """
    ga = GridAction(pa, range(len(pa.points)), np.empty((2, 0), dtype=np.int64), F1(1), F1(1))
    towers = as_table(ga, derived_towers(ga, levels))
    witnesses = [{x: F1(1)} for x in sorted(pa.carrier)]
    witnesses.append({x: F1(1) for x in pa.carrier})
    return ga, towers, as_family(ga, witnesses)
