"""Two-group particle swarm optimization with scheduled gene mutation,
a shifted/rotated benchmark suite, and 1NN wrapper feature selection.

The package exports the names the README and the demos use; the operators,
transforms and harness internals are imported from their submodules.
"""

from .benchmarks import registry
from .datasets import normalize_minmax, synth_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    EvaluationError,
    UnknownFunctionError,
)
from .feature_selection import (
    WrapperConfig,
    evaluate_mask,
    position_bounds,
    select_features,
)
from .harness import summarize
from .swarm import EpsoConfig, group1_size, mutation_gene_count, optimize

__version__ = "0.1.0"
