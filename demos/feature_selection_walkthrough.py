"""Wrapper feature selection on a synthetic high-dimensional dataset.

Builds a dataset where only a few features carry class signal, then lets the
optimizer search [-1, 1]^F positions that threshold into feature masks scored
by stratified-k-fold 1NN accuracy. Shows the selected subset against the
all-features baseline and against the known informative features.

Usage: python3 demos/feature_selection_walkthrough.py
"""

import numpy as np

from epso import (
    EpsoConfig,
    WrapperConfig,
    evaluate_mask,
    normalize_minmax,
    position_bounds,
    select_features,
    synth_dataset,
)

N_SAMPLES, N_FEATURES, N_INFORMATIVE = 100, 60, 5


def main():
    data = normalize_minmax(
        synth_dataset(N_SAMPLES, N_FEATURES, N_INFORMATIVE, seed=7)
    )
    print(f"dataset: {data.name}")
    print(f"{data.n_samples} samples, {data.n_features} features, "
          f"{data.n_classes} classes")

    wrapper = WrapperConfig(protocol="kfold", k_folds=10)
    baseline = evaluate_mask(data, np.ones(N_FEATURES, dtype=bool), wrapper)
    print(f"\nall-features 1NN accuracy (10-fold): {baseline:.4f}")

    cfg = EpsoConfig(
        dimension=N_FEATURES,
        bounds=position_bounds(N_FEATURES),
        population_size=20,
        max_iterations=40,
        seed=3,
    )
    result = select_features(data, cfg, wrapper)
    print(f"\nselected {result.mask.sum()} of {N_FEATURES} features "
          f"with accuracy {result.accuracy:.4f} "
          f"({result.wall_time:.2f}s)")
    print("selected:", ", ".join(np.array(data.feature_names)[result.mask]))

    # the dataset name records which columns were informative
    informative = data.name.split("inf[")[1].rstrip("]")
    print(f"truly informative columns: f{informative.replace(',', ', f')}")


if __name__ == "__main__":
    main()
