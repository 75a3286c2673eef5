"""Machine-speed reference for scaling the benchmark's timings.

On a shared machine the CPU speed a process gets swings by up to 2x within
a minute (on a 2-core Xeon VM one chain-mitigate batch took 0.69 s and
1.36 s for identical work, 20 s apart), far beyond any useful regression
bound.  A fixed loop of SHA-256, dict and integer work, timed in the same
process right before and after each batch, slows down by about the same
factor: scaling cut the run-to-run spread of chain-mitigate and
ladder-detect from 12-31% to 3-9%, less so for the two-thread
ladder-mitigate.  Timings are therefore reported as if the loop had taken
REFERENCE_S:

    scaled rate     = measured rate    * reference_seconds() / REFERENCE_S
    scaled duration = measured seconds * REFERENCE_S / reference_seconds()

The loop is the benchmark's own code, so no change to detmit moves it.
"""

from __future__ import annotations

import hashlib
import time

REFERENCE_S = 0.05
_ROUNDS = 60_000


def reference_seconds() -> float:
    """Wall time of the fixed reference loop, now, in this process."""
    start = time.perf_counter()
    digest, table = b"perfbench", {}
    for i in range(_ROUNDS):
        digest = hashlib.sha256(digest).digest()
        key = digest[0]
        table[key] = table.get(key, 0) + (i ^ key)
    return time.perf_counter() - start
