"""Persistent-homology ML pipeline with observational feature attribution."""

from .geometry import (GridSpec, GridCounts, ParamVector, PointCloud, SyntheticSpec,
                       generate_structure, grid_counts, load_xyz, pairwise_distances,
                       perturb, save_xyz, synthetic_target)
from .persistence import (Filtration, PersistenceDiagram, PersistencePair,
                          build_rips, diagram, reduce, reduce_naive,
                          representative_cycle)
from .vectorize import (HistogramSpec, LandscapeImage, default_spec, features,
                        gaussian_blur, histogram, landscapes, pixel_of_pair,
                        split_features)
from .forest import (Forest, TrainConfig, impurity_importance,
                     permutation_importance, predict, predict_batch, r2, train)
from .xai import (Attribution, CohortIndicatorMatrix, SimilaritySpec, cohort_shapley,
                  cohort_value, igcs, multilinear_gradient, multilinear_value,
                  similarity_matrix)
from .explain import (GridAttribution, HigherOrderMaps, grid_based_explanation,
                      higher_order, influential_cycles, param_attribution,
                      pixel_attribution)

__version__ = "0.1.0"
