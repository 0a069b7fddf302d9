"""Causal identification from ancestral graphs under selection bias.

Subpackages:
    graph       mixed-graph data model, structural queries, edge visibility
    represent   translations between graph classes and proof-driven witnesses
    manipulate  hard/soft manipulation operators
    separate    id-separation and classical m-separation
    fci         constraint-based discovery of partial ancestral graphs
    identify    identification algorithms, calculus checks, hedges
    oracle      exact discrete structural-causal-model engine
    cli         command-line front end
"""

__version__ = "0.1.0"
