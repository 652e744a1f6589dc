"""Reverse-reachable set machinery (Borgs et al.; Tang et al. TIM)."""

from repro.rrset.sampler import RRSampler, sample_batch_flat_kernel
from repro.rrset.kernels import (
    KERNELS,
    NUMBA_AVAILABLE,
    resolve_kernel,
    sample_batch_flat_kernel_numba,
)
from repro.rrset.backend import (
    BACKENDS,
    ParallelBackend,
    SamplerBackend,
    SerialBackend,
    make_backend,
    resolve_backend,
)
from repro.rrset.collection import (
    RRCollection,
    SharedRRCollection,
    SharedRRStore,
    estimate_spread_flat,
    estimate_spread_from_sets,
    member_dtype_for,
)
from repro.rrset.tim import (
    log_binomial,
    sample_size,
    KPTEstimator,
)

__all__ = [
    "RRSampler",
    "sample_batch_flat_kernel",
    "sample_batch_flat_kernel_numba",
    "KERNELS",
    "NUMBA_AVAILABLE",
    "resolve_kernel",
    "BACKENDS",
    "SamplerBackend",
    "SerialBackend",
    "ParallelBackend",
    "make_backend",
    "resolve_backend",
    "RRCollection",
    "SharedRRCollection",
    "SharedRRStore",
    "estimate_spread_flat",
    "estimate_spread_from_sets",
    "member_dtype_for",
    "log_binomial",
    "sample_size",
    "KPTEstimator",
]
