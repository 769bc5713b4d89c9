"""SMT-based verifier for a memory-model fragment of Solidity.

Pipeline: parse -> resolve -> translate to an SMT-based program ->
normalize/SSA -> one verification condition per assert -> external
solver. A concrete reference interpreter provides differential ground
truth, and a seeded generator produces fuzz programs for it.
"""

from .parser import parse_source
from .resolver import resolve_and_check
from .translate import translate_function
from .verify import verify_source

__version__ = "0.1.0"

__all__ = [
    "parse_source",
    "resolve_and_check",
    "translate_function",
    "verify_source",
    "__version__",
]
