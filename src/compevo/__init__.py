"""Random weak integer compositions: models, patterns, closed forms, oracles."""

from .core import (Composition, EstimateResult, GuardExceeded, PatternKind, PatternSpec,
                   UnsupportedProperty, count_compositions)
from .patterns import MatchReport, PatternSyntaxError, match, parse_pattern
from .properties import Property
from .rng import RngStream
from .samplers import sample_bridge, sample_geometric, sample_uniform_bars
from .theory import TheoryPrediction, poisson_limit, threshold_location

__version__ = "0.1.0"

__all__ = [
    "Composition", "EstimateResult", "GuardExceeded", "MatchReport", "PatternKind",
    "PatternSpec", "PatternSyntaxError", "Property", "RngStream", "TheoryPrediction",
    "UnsupportedProperty", "count_compositions", "match", "parse_pattern", "poisson_limit",
    "sample_bridge", "sample_geometric", "sample_uniform_bars", "threshold_location",
]
