"""Sequential (centralised) dynamic algorithms.

These serve three purposes in the reproduction:

1. they are the payloads of the Section 7 black-box reduction (a sequential
   dynamic algorithm with update time ``u`` becomes a DMPC algorithm with
   ``O(u)`` rounds, ``O(1)`` machines and ``O(1)`` communication per round);
2. they are the origin of the techniques the DMPC algorithms adapt
   (Neiman–Solomon for Section 3/4, Euler tours for Section 5);
3. they provide fast centralised oracles for property tests.

Every algorithm counts its primitive data-structure operations in
``self.operations`` so the reduction can convert update *time* into DMPC
*rounds* faithfully.
"""

from __future__ import annotations

from repro.seq.ett import EulerTourTree
from repro.seq.hdt import HDTConnectivity
from repro.seq.neiman_solomon import NeimanSolomonMatching
from repro.seq.dynamic_mst import SequentialDynamicMST

__all__ = [
    "EulerTourTree",
    "HDTConnectivity",
    "NeimanSolomonMatching",
    "SequentialDynamicMST",
]
