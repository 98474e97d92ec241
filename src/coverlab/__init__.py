"""Numerical laboratory for covering-surface experiments on the Riemann sphere.

Modules:
    expr    -- map expression trees (parse, differentiate, evaluate)
    metric  -- normalized spherical metric, pullback area/length, radius selection
    trace   -- lifts of chart segments, the figure-eight preimage graph
    count   -- preimage counting, islands, degrees, ramification
    lifting -- path lifting through a map, many lifts in one array pass
    verify  -- per-radius reports and the asymptotic checks
    cli     -- configuration and experiment orchestration
"""

from coverlab.expr import parse_map, differentiate, evaluate

__all__ = ["parse_map", "differentiate", "evaluate"]

__version__ = "0.1.0"
