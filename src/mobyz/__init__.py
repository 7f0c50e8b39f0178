"""Deterministic simulator and protocol library for Byzantine agreement
under a mobile adversary: the complete-network protocol, reliable
communication over incomplete networks, the reduction composing them, and
the scripted adversary constructions from the impossibility arguments."""

from .core import (
    EMPTY,
    MANY,
    PairMessage,
    ProcessorState,
    RoundTrace,
    Trace,
    Value,
    View,
    parse_value,
    view_of,
)
from .graphs import (
    Network,
    PathSystem,
    common_neighbors,
    complete_minus_matching,
    complete_network,
    cycle_network,
    disjoint_paths,
    local_connectivity,
    make_two_clique_network,
    min_degree,
    read_edge_list,
    source_separation,
    star_network,
    vertex_connectivity,
    write_edge_list,
)
from .protocol import (
    ProtocolParams,
    first_round_state,
    pivot_index,
    termination_round,
)
from .comms import (
    CommScheme,
    LiftedProtocol,
    TransferPlan,
    TransferRun,
    compute_T,
    flood_plan,
    flood_scheme,
    kappa_sufficiency_bounds,
    lift,
    two_round_plan,
    two_round_scheme,
)
from .adversary import (
    AlternatingControl,
    GroupSplitControl,
    NoFaults,
    OverrideStrategy,
    RandomizedControl,
    ScenarioPair,
    ScheduledControl,
    ScriptedStrategy,
    StaticControl,
    Strategy,
    cut_set_pair,
    five_set_pair,
)
from .sim import (
    SOURCE,
    Scenario,
    StrategyViolation,
    Verdict,
    check_agreement,
    check_indistinguishable,
    check_support_claim,
    run,
)

__version__ = "0.1.0"
