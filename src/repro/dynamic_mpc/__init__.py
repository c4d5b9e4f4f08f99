"""Fully-dynamic DMPC algorithms — the paper's contribution.

One module per section of the paper:

========================  =====================================================
Module                    Paper section / result
========================  =====================================================
``maximal_matching``      Section 3 — maximal matching, O(1) rounds, O(1)
                          active machines, O(sqrt N) communication per round
``three_halves_matching`` Section 4 — 3/2-approximate matching, O(1) rounds,
                          O(n / sqrt N) machines, O(sqrt N) communication
``connectivity``          Section 5 — connected components via Euler tours,
                          O(1) rounds, O(sqrt N) machines, O(sqrt N) comm
``approx_mst``            Section 5.1 — (1+eps)-approximate MST, same costs
``two_plus_eps_matching`` Section 6 — (2+eps)-approximate (almost-maximal)
                          matching, O(1) rounds, polylog machines and comm
========================  =====================================================

Every algorithm exposes the same driver interface
(:class:`~repro.dynamic_mpc.base.DynamicMPCAlgorithm`): ``preprocess`` on an
initial graph, ``apply(update)`` per dynamic update, plus solution accessors
and the metrics ledger of the underlying cluster.
"""

from __future__ import annotations

from repro.dynamic_mpc.base import DynamicMPCAlgorithm
from repro.dynamic_mpc.maximal_matching import DMPCMaximalMatching
from repro.dynamic_mpc.three_halves_matching import DMPCThreeHalvesMatching
from repro.dynamic_mpc.connectivity import DMPCConnectivity
from repro.dynamic_mpc.approx_mst import DMPCApproxMST
from repro.dynamic_mpc.two_plus_eps_matching import DMPCTwoPlusEpsMatching

__all__ = [
    "DynamicMPCAlgorithm",
    "DMPCMaximalMatching",
    "DMPCThreeHalvesMatching",
    "DMPCConnectivity",
    "DMPCApproxMST",
    "DMPCTwoPlusEpsMatching",
]
