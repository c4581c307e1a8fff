"""PARSEC-like instrumented workloads (the paper's Table-2 suite).

Each module implements one benchmark of the suite as a :class:`Workload`:
a calibrated per-beat cost model for the simulated machine plus a real numpy
kernel of the same character for wall-clock instrumented runs.  See
``docs/claims.md`` for the substitution and the claims it reproduces.
"""

from repro.workloads.base import REFERENCE_CORES, Workload, WorkloadInfo
from repro.workloads.blackscholes import BlackscholesWorkload, black_scholes_price
from repro.workloads.bodytrack import BodytrackWorkload, ParticleFilter
from repro.workloads.canneal import CannealWorkload, NetlistAnnealer
from repro.workloads.dedup import ChunkingDeduplicator, DedupWorkload
from repro.workloads.facesim import FacesimWorkload, SpringMassMesh
from repro.workloads.ferret import FerretWorkload, SimilarityIndex
from repro.workloads.fluidanimate import FluidanimateWorkload, SPHFluid
from repro.workloads.streamcluster import OnlineKMedian, StreamclusterWorkload
from repro.workloads.suite import (
    WORKLOAD_CLASSES,
    Table2Row,
    create_workload,
    run_table2,
    workload_names,
)
from repro.workloads.swaptions import SwaptionsWorkload, price_swaption
from repro.workloads.x264 import RatePhase, X264Workload

__all__ = [
    "Workload",
    "WorkloadInfo",
    "REFERENCE_CORES",
    "BlackscholesWorkload",
    "BodytrackWorkload",
    "CannealWorkload",
    "DedupWorkload",
    "FacesimWorkload",
    "FerretWorkload",
    "FluidanimateWorkload",
    "StreamclusterWorkload",
    "SwaptionsWorkload",
    "X264Workload",
    "RatePhase",
    "black_scholes_price",
    "price_swaption",
    "ParticleFilter",
    "NetlistAnnealer",
    "ChunkingDeduplicator",
    "SpringMassMesh",
    "SimilarityIndex",
    "SPHFluid",
    "OnlineKMedian",
    "WORKLOAD_CLASSES",
    "Table2Row",
    "create_workload",
    "run_table2",
    "workload_names",
]
