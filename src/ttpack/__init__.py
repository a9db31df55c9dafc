"""Toolkit for edge-disjoint packings of transitive subtournaments.

Provides an exact bitset tournament representation, isomorph-free
enumeration of small tournaments, an exact branch-and-bound packing
solver with certificates, block-design generators (Steiner triple
systems, affine-plane line sets), a randomized decomposition pipeline
for packing lower bounds, extremal constructions, and seeded random
experiments.  Everything is deterministic given a seed.
"""

TOOL_VERSION = "0.1.0"
FORMAT_VERSION = 1

# Seed used by the CLI whenever none is supplied; never wall-clock derived.
DEFAULT_SEED = 1729

from .tournament import (  # noqa: E402,F401
    Tournament,
    TriangleCensus,
    census,
    induced,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    transitive_triples_lower_bound,
)
