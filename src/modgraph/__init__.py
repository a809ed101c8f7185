"""Modularity of random graphs at desk scale: exact scoring, seeded
generators, the Swap bisection, spectral bounds, a brute-force oracle,
and a reproducible experiment harness."""

from .graph import (EdgeListFormatError, EmptyGraphError, Graph,
                    InvalidPartitionError, ModularityBreakdown, Partition,
                    connected_components, induced_subgraph, modularity_exact,
                    modularity_score, read_edgelist, read_partition,
                    strip_isolated, write_edgelist, write_partition)
from .generators import (GeneratorSpec, LabeledGraph, Model, MTooLargeError,
                         RateOutOfRangeError, gen_gnm, gen_gnp, gen_planted,
                         sample, substream)
from .heuristics import (KTooSmallError, SwapTrace, TooSmallError, f_k,
                         planted_partition, swap_bisection)
from .oracle import (COutOfRangeError, OracleResult, RobustnessCheck,
                     exact_modularity, exact_modularity_k,
                     optimal_connectivity_check, resolution_limit_check,
                     robustness_check, solve_dual)
from .spectral import (DENSE_CAP, GapEstimate, IsolatedVertexError,
                       NoConvergenceError, PruneResult, SpectralSummary,
                       TooLargeError, UpperWitness, discrepancy_audit,
                       extremal_gap, normalized_laplacian, prune,
                       spectral_gap_extremal, spectral_summary,
                       spectral_upper_witness)
from .experiments import (EXPERIMENTS, CheckOutcome, EpsOutOfRangeError,
                          ExperimentConfig, ExperimentResult, run_experiment,
                          wilson_upper)

__version__ = "0.1.0"
