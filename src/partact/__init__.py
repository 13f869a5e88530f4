"""Partial actions of finite groups on finite sets.

Finite groups are multiplication tables with 0 as the identity.  Partial
actions are families of partial bijections between subsets of a finite
carrier.  On top of that the package computes translation groupoids,
globalizations, orbit-type decompositions, crossed-product block structure,
and exact (rational) Rokhlin tower certificates, plus grid-discretized tower
feasibility for two continuous model systems.
"""

__version__ = "0.1.0"
