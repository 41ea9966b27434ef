"""Gaussian processes on finite spaces of graphs and graph equivalence classes.

The pieces, bottom up:

- :mod:`graphgp.spaces` - graphs as d-bit codes with XOR group structure,
  Hamming distance, and node-permutation actions.
- :mod:`graphgp.kravchuk` - the dynamic-programming tables that collapse
  Walsh level sums to functions of Hamming distance.
- :mod:`graphgp.kernels` - Matérn / heat / custom spectral kernels with stable
  normalization and Gram assembly.
- :mod:`graphgp.invariance` - permutation subgroups, orbits, group-averaged
  (projected) kernels exact and Monte Carlo, quotient graphs.
- :mod:`graphgp.gp` - exact GP regression, marginal-likelihood tuning, prior
  and posterior sampling.
- :mod:`graphgp.datasets` - molecule-to-graph encodings, splits, metrics.
- :mod:`graphgp.cli` - the ``graphgp`` command-line entry point.
"""

from .spaces import (
    GraphCode,
    GraphSpace,
    GraphSpaceKind,
    NodePermutation,
    dimension,
    edge_permutation,
    graph_from_json,
    graph_to_json,
    hamming,
)
from .kravchuk import KravchukTable, build_table
from .kernels import (
    CustomPhi,
    Heat,
    IsotropicKernel,
    KernelSpec,
    LaplacianVariant,
    LinearKernel,
    Matern,
    evaluate,
    gram,
    heat_closed_form,
    kernel_profile,
    level_amplitudes,
    level_log_weights,
    matern_spec,
    spec_from_json,
    spec_to_json,
)
from .invariance import (
    OrbitClass,
    PermSubgroup,
    ProjectedKernel,
    QuotientGraph,
    build_quotient,
    draw_sample,
    enumerate_orbit,
    invariant_gram_exact,
    invariant_gram_sampled,
    invariant_kernel_exact,
    invariant_kernel_sampled,
    orbit_equivalence_test,
    orbit_representative,
    quotient_kernel_matrix,
)
from .gp import (
    GPModel,
    RandomPhaseSampler,
    TruncatedWalshSampler,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    posterior_sample,
    predict,
    project_sample,
    sample_prior_exact,
)
from .datasets import (
    Molecule,
    SequentialLayout,
    TypeAlignedLayout,
    encode,
    filter_small,
    predictive_log_likelihood,
    rmse,
    subgroup_from_layout,
    train_test_split,
)

__version__ = "0.1.0"
