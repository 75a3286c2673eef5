"""detmit: defense-by-detection vs defense-by-mitigation game simulations.

Two interactive defense games over generative tasks — flag bad batches
(detection) or answer them safely (mitigation) — with the generic reductions
between them, plus two task constructions that separate the games: a token
ladder where mitigation needs more samples, and a sequential hash chain where
mitigation needs more per-query work.  All cryptographic primitives are
simulated desk-scale, with real metering of samples and steps.
"""

from .core import run_dbm_trial  # noqa: F401  perfbench's unpatch test reads detmit.run_dbm_trial

__version__ = "0.1.0"
