"""Numerical laboratory for covering-surface experiments on the Riemann sphere.

Subpackages:
    expr    -- map expression language (parse, differentiate, evaluate)
    metric  -- normalized spherical metric, pullback area/length, radius selection
    trace   -- lifts of chart segments, the figure-eight preimage graph
    count   -- preimage counting, islands, degrees, ramification
    verify  -- per-radius reports and the asymptotic checks
    cli     -- configuration and experiment orchestration
"""

from coverlab.expr import MapExpr, parse_map, differentiate, evaluate

__all__ = ["MapExpr", "parse_map", "differentiate", "evaluate"]

__version__ = "0.1.0"
