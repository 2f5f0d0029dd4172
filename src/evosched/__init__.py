"""Edge-assisted model-evolution scheduling: drift detection, frame sampling,
task profiling, urgency-grouped knapsack scheduling, and a deterministic
discrete-event simulator."""

from .core import (
    LifeCycle,
    QoEReport,
    UrgencyInput,
    penalized_average_qoe,
    penalty_weights_for_cycles,
    qoe_single,
    urgency,
)
from .drift import (
    Detection,
    DetectorConfig,
    DriftDetector,
    DriftEvent,
    DriftType,
    FrameRecord,
    FrameTrace,
    classify_drift,
    clc,
    distribution_distance,
    first_drift,
    read_trace_csv,
    rod,
    write_trace_csv,
)
from .sampler import (
    GlobalFeatureModel,
    SamplerConfig,
    feature_deviation,
    linear_rate,
    sample_gradual,
    sample_incremental,
    sample_sudden,
)
from .profiler import (
    AccuracyCurve,
    LayerKind,
    LayerSpec,
    MemoryBreakdown,
    ModelArch,
    TimeRegressor,
    feature_memory,
    fit_accuracy_curve,
    memory_demand,
    train_time_regressor,
)
from .scheduler import (
    EvolutionTask,
    GpuPool,
    GroupingConfig,
    SelectionResult,
    allocate_compute,
    assign_group,
    calibrate_sigma,
    decide_capacity,
    group_boundaries,
    group_number,
    select_tasks,
)
from .simenv import (
    DriftInjection,
    MobileEndSpec,
    Policy,
    Scenario,
    ServerSpec,
    SimMetrics,
    admit,
    gen_trace,
    load_scenario,
    run,
    save_scenario,
    write_metrics_csv,
    write_summary_json,
)

__version__ = "0.1.0"
