"""Hierarchical secure coded gradient aggregation over prime fields.

Users encode gradients with a shared Vandermonde matrix and upload one
short block to each helper; helpers exchange dealer-masked shares to
patch straggled links and forward aggregate responses; the master
reconstructs exactly the gradient sum.  The ``leakage`` module proves
the scheme's security statements exactly by rank arithmetic over the
source symbols.
"""

from .field import PrimeField
from .matrix import GfMatrix, make_points, vandermonde
from .patterns import CommPattern, enumerate_patterns, parse_pattern, sample_pattern
from .protocol import (
    Gradient,
    RoundTranscript,
    SchemeContext,
    SchemeParams,
    UserRandomness,
    dealer_generate,
    encode_uploads,
    helper_recover,
    helper_respond,
    helper_share,
    master_decode,
    measure_rates,
    run_round,
    setup,
)

__all__ = [
    "PrimeField",
    "GfMatrix",
    "make_points",
    "vandermonde",
    "CommPattern",
    "enumerate_patterns",
    "parse_pattern",
    "sample_pattern",
    "Gradient",
    "RoundTranscript",
    "SchemeContext",
    "SchemeParams",
    "UserRandomness",
    "dealer_generate",
    "encode_uploads",
    "helper_recover",
    "helper_respond",
    "helper_share",
    "master_decode",
    "measure_rates",
    "run_round",
    "setup",
]

__version__ = "0.1.0"
