"""Two-group particle swarm optimization with scheduled gene mutation,
a shifted/rotated benchmark suite, and 1NN wrapper feature selection."""

from .benchmarks import (
    CompositionComponent,
    ObjectiveSpec,
    TransformSpec,
    ackley,
    apply_transform,
    available_functions,
    cigar,
    composition,
    composition_weights,
    elliptic,
    hybrid,
    rastrigin,
    registry,
    schwefel,
)
from .datasets import (
    Dataset,
    cfo_index,
    complexity_index,
    load_csv,
    normalize_minmax,
    save_csv,
    stratified_folds,
    synth_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    EvaluationError,
    UnknownFunctionError,
)
from .feature_selection import (
    FeatureMask,
    FeatureSelectionResult,
    WrapperConfig,
    binarize,
    evaluate_mask,
    knn_classify,
    position_bounds,
    select_features,
    wrapper_objective,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    SummaryStats,
    build_config,
    emit_report,
    emit_trace,
    emit_traces,
    parse_config,
    run_experiment,
    summarize,
)
from .swarm import (
    EpsoConfig,
    RandomSource,
    RunResult,
    SwarmState,
    apply_velocity,
    assign_groups,
    group1_size,
    group2_size,
    inertia_weight,
    init_swarm,
    mutation_gene_count,
    optimize,
    select_mutation_genes,
    step,
    update_bests,
    update_velocity_extended,
    update_velocity_standard,
)

__version__ = "0.1.0"
