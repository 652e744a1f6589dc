"""Memory accounting helpers (Table 3).

The paper reports process-level GB on 264 GB hardware; the reproduction
tracks the dominant term — RR-set storage — analytically via
:meth:`repro.rrset.collection.SharedRRStore.memory_bytes` plus each ad's
residual overlay (the engine's ``memory_bytes`` extra) and converts it
here.  The claim under test is the *shape*: memory grows linearly with
the number of advertisers and TI-CSRM needs 20–40% more than TI-CARM
(it certifies larger seed-set sizes, hence more RR sets).
"""

from __future__ import annotations

from repro.core.allocation import AllocationResult


def megabytes(n_bytes: int) -> float:
    """Bytes → MB (10^6, as used in the reports)."""
    return n_bytes / 1e6


def result_memory_mb(result: AllocationResult) -> float:
    """RR-collection memory of one TI run, in MB."""
    return megabytes(result.extras.get("memory_bytes", 0))


def memory_ratio(csrm: AllocationResult, carm: AllocationResult) -> float:
    """TI-CSRM : TI-CARM memory ratio (paper: ≈ 1.2–1.4 on LIVEJOURNAL)."""
    carm_mb = result_memory_mb(carm)
    if carm_mb <= 0:
        return float("inf")
    return result_memory_mb(csrm) / carm_mb
