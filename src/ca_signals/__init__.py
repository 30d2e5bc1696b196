"""Impulse cellular automata, their signals, and machine-checked claims.

The package splits along the pipeline: ``lattice`` fixes neighborhoods over
Z^k, ``automaton`` defines rule tables and the built-in counter automata,
``engine`` simulates (sparse vectorized, a diagonal window for claims, and an
independent dense reference), ``signals`` detects and follows site walks,
``analysis`` measures periodicity and gap growth, ``verification`` bundles the
end-to-end checks, and ``cli`` exposes everything as a command line.
"""

from .analysis import (BaseXYReadoutProbe, BinaryReadoutProbe, GapReport,
                       NotPeriodicWithin, PeriodDecomposition, PlaneProbe,
                       SearchReport, crt_digit, exhaustive_two_state_search,
                       gap_probe, is_basic, ultimate_period,
                       verify_period_bounds)
from .automaton import (LAMBDA, WILDCARD, AnyOf, ImpulseCA, Literal, Rule,
                        RuleTable, builtin_log2, builtin_quiescent, builtin_xy,
                        merged_xy, parse_rules, serialize_rules)
from .engine import (DiagonalProbe, SpaceTimeDiagram, dense_run,
                     diagram_from_json_obj, max_horizon, run, run_probes,
                     same_run, w_site)
from .errors import (AlphabetMismatch, ArityMismatch, BeyondHorizon,
                     BeyondWindow, CheckFailed, CoordinateOverflow, NoMatch,
                     NotCoprime, NotTotal, OverflowHorizon, PlaneViolation,
                     QuiescentViolation, RuleFileError, RuleSyntaxError,
                     UnknownState, XNotSmallest)
from .lattice import Neighborhood, offsets
from .signals import (DetectProbe, Follower, FollowProbe, FollowTrace,
                      MarkedProbe, MoveConvention, MovePartition, ProductCA,
                      Signal, follower_for_xy, gap_profile, ilog,
                      log2_partition, log_anchor_signal, parse_move_partition,
                      product_construct)
from .verification import (VerifyReport, verify_basic, verify_bounds,
                           verify_log2, verify_xy)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatch", "AnyOf", "ArityMismatch", "BaseXYReadoutProbe",
    "BeyondHorizon", "BeyondWindow", "BinaryReadoutProbe", "CheckFailed",
    "CoordinateOverflow", "DetectProbe", "DiagonalProbe", "FollowProbe",
    "Follower", "FollowTrace", "GapReport", "ImpulseCA", "LAMBDA", "Literal",
    "MarkedProbe", "MoveConvention", "MovePartition", "Neighborhood",
    "NoMatch", "NotCoprime", "NotPeriodicWithin", "NotTotal",
    "OverflowHorizon", "PeriodDecomposition", "PlaneProbe",
    "PlaneViolation", "ProductCA", "QuiescentViolation", "Rule",
    "RuleFileError", "RuleSyntaxError", "RuleTable", "SearchReport",
    "Signal", "SpaceTimeDiagram", "UnknownState", "VerifyReport",
    "WILDCARD", "XNotSmallest", "builtin_log2", "builtin_quiescent",
    "builtin_xy", "crt_digit", "dense_run", "diagram_from_json_obj",
    "exhaustive_two_state_search", "follower_for_xy", "gap_probe",
    "gap_profile", "ilog", "is_basic", "log2_partition",
    "log_anchor_signal", "max_horizon", "merged_xy", "offsets",
    "parse_move_partition", "parse_rules", "product_construct", "run",
    "run_probes", "same_run", "serialize_rules", "ultimate_period",
    "verify_basic", "verify_bounds", "verify_log2", "verify_period_bounds",
    "verify_xy", "w_site",
]
