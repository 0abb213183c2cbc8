"""Exact chromatic symmetric functions of unit interval orders.

The package computes chromatic symmetric functions and their graph
analogues in exact arithmetic, and ships verification suites that check
every positivity identity it implements against independent brute-force
oracles (see the README and the `chroma verify` command).  The package
root re-exports the names that the README, the demos and the benchmark
import from it; import anything else from its module.
"""

from .combinat import (
    Graph,
    Poset,
    UnitIntervalOrder,
    catalan,
    clan_graph,
    conjugate,
    enumerate_uios,
    inc_graph,
    is_ab_free,
    partitions_of,
    realize,
    uio_from_points,
    uio_recognize,
)
from .chromatic import (
    acyclic_orientation_sinks,
    chromatic_symmetric,
    e_coefficients,
    positivity_report,
)
from .corrects import (
    enumerate_corrects,
    is_correct,
    m_l1_via_corrects,
    power_via_corrects,
    verify_cancellations,
)
from .ghom import (
    GAnalogueContext,
    apply_ghom,
    gnechrom_check,
    monomial_g,
    power_g,
    schur_g,
)
from .lgvgrid import build_grid, lgv_check, path_sum, schur_via_lgv
from .symfunc import SymFunc, convert

__version__ = "0.1.0"
