"""MaxEmbed reproduction — replication-aware SSD embedding storage & serving.

A faithful, laptop-scale reimplementation of *MaxEmbed: Maximizing SSD
bandwidth utilization for huge embedding models serving* (ASPLOS '24),
including every substrate the paper depends on: the SHP hypergraph
partitioner, the three replication strategies, the one-pass page
selector with index shrinking and pipelined reads, a discrete-event NVMe
simulator, a CacheLib-style LRU cache, synthetic versions of the five
evaluation datasets, and a numpy DLRM that consumes the store.

Quickstart::

    from repro import MaxEmbedStore, MaxEmbedConfig, make_trace

    trace, preset = make_trace("criteo", scale="small")
    history, live = trace.split(0.5)
    store = MaxEmbedStore.build(history, MaxEmbedConfig(replication_ratio=0.1))
    report = store.serve_trace(live)
    print(report.throughput_qps(), report.effective_bandwidth_fraction())
"""

from .cluster import (
    SHARD_STRATEGIES,
    ClusterEngine,
    ClusterReport,
    HealthConfig,
    ReplicaGroup,
    ReplicaHealthMonitor,
    ShardPlan,
    ShardedLayout,
    build_sharded_layout,
    load_sharded_layout,
    make_planner,
    save_sharded_layout,
)
from .core import (
    LayoutManager,
    LayoutVersion,
    MaxEmbedConfig,
    MaxEmbedStore,
    build_offline_layout,
)
from .errors import (
    CacheError,
    ConfigError,
    CorruptArtifactError,
    DeviceFault,
    ExperimentError,
    HypergraphError,
    PartitionError,
    PlacementError,
    RefreshError,
    ReplicaExhaustedError,
    ReplicaFault,
    ReproError,
    ServingError,
    ShardUnavailableError,
    StorageError,
    WorkloadError,
)
from .faults import (
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultySsd,
    RefreshFaultPlan,
    ShardFaultPlan,
)
from .refresh import (
    DriftWatcher,
    RefreshConfig,
    RefreshDaemon,
    TrafficWindow,
)
from .hypergraph import Hypergraph, build_hypergraph, build_weighted_hypergraph
from .overload import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionQueue,
    BrownoutConfig,
    BrownoutController,
    DegradeConfig,
    DegradeLevel,
    default_ladder,
)
from .metrics import evaluate_placement, read_amplification
from .partition import (
    MultilevelConfig,
    MultilevelPartitioner,
    RandomPartitioner,
    ShpConfig,
    ShpPartitioner,
    StreamingPartitioner,
    VanillaPlacement,
)
from .placement import ForwardIndex, InvertIndex, PageLayout
from .replication import (
    ConnectivityPriorityStrategy,
    FprStrategy,
    GreedyBenefitStrategy,
    IncrementalReplicator,
    RppStrategy,
)
from .service import (
    CoalescerConfig,
    CoreLoadGenerator,
    GatewayCore,
    HttpGateway,
    HttpLoadGenerator,
    ServiceConfig,
    TenantConfig,
    run_gateway,
)
from .serving import (
    EngineConfig,
    OnePassSelector,
    PipelinedExecutor,
    RetryPolicy,
    SerialExecutor,
    ServingEngine,
    ServingReport,
)
from .ssd import P4510, P5800X, RAID0_2X_P5800X, SimulatedSsd, SsdProfile
from .cache import EmbeddingCache, LruCache
from .types import EmbeddingSpec, Query, QueryTrace, ReplicationConfig
from .workloads import (
    DATASETS,
    SyntheticTraceGenerator,
    WorkloadSpec,
    get_preset,
    load_trace,
    make_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "MaxEmbedStore",
    "MaxEmbedConfig",
    "build_offline_layout",
    "LayoutManager",
    "LayoutVersion",
    # cluster
    "SHARD_STRATEGIES",
    "ShardPlan",
    "ShardedLayout",
    "build_sharded_layout",
    "ClusterEngine",
    "ClusterReport",
    "ReplicaGroup",
    "ReplicaHealthMonitor",
    "HealthConfig",
    "make_planner",
    "save_sharded_layout",
    "load_sharded_layout",
    # types
    "Query",
    "QueryTrace",
    "EmbeddingSpec",
    "ReplicationConfig",
    # hypergraph
    "Hypergraph",
    "build_hypergraph",
    "build_weighted_hypergraph",
    # partition
    "ShpPartitioner",
    "ShpConfig",
    "MultilevelPartitioner",
    "MultilevelConfig",
    "StreamingPartitioner",
    "RandomPartitioner",
    "VanillaPlacement",
    # replication
    "ConnectivityPriorityStrategy",
    "RppStrategy",
    "FprStrategy",
    "GreedyBenefitStrategy",
    "IncrementalReplicator",
    # placement
    "PageLayout",
    "ForwardIndex",
    "InvertIndex",
    # serving
    "ServingEngine",
    "EngineConfig",
    "ServingReport",
    "OnePassSelector",
    "PipelinedExecutor",
    "SerialExecutor",
    "RetryPolicy",
    # service
    "GatewayCore",
    "HttpGateway",
    "ServiceConfig",
    "CoalescerConfig",
    "TenantConfig",
    "CoreLoadGenerator",
    "HttpLoadGenerator",
    "run_gateway",
    # overload
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "AdmissionQueue",
    "BrownoutConfig",
    "BrownoutController",
    "DegradeConfig",
    "DegradeLevel",
    "default_ladder",
    # faults
    "FaultPlan",
    "FaultInjector",
    "FaultySsd",
    "BreakerConfig",
    "CircuitBreaker",
    "RefreshFaultPlan",
    "ShardFaultPlan",
    # refresh
    "RefreshConfig",
    "RefreshDaemon",
    "DriftWatcher",
    "TrafficWindow",
    # ssd
    "SsdProfile",
    "SimulatedSsd",
    "P5800X",
    "P4510",
    "RAID0_2X_P5800X",
    # cache
    "LruCache",
    "EmbeddingCache",
    # workloads
    "WorkloadSpec",
    "SyntheticTraceGenerator",
    "DATASETS",
    "get_preset",
    "make_trace",
    "save_trace",
    "load_trace",
    # metrics
    "evaluate_placement",
    "read_amplification",
    # errors
    "ReproError",
    "ConfigError",
    "HypergraphError",
    "PartitionError",
    "PlacementError",
    "StorageError",
    "CacheError",
    "ServingError",
    "RefreshError",
    "WorkloadError",
    "ExperimentError",
    "DeviceFault",
    "CorruptArtifactError",
    "ShardUnavailableError",
    "ReplicaFault",
    "ReplicaExhaustedError",
]
