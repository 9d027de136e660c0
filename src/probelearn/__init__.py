"""Lifelong learning when every feature read costs a probe.

Datasets meter feature reads (labels are free, re-reads are memoized); the
lifelong protocol attempts each task cheaply through a learned
representation and falls back to probing everything plus scratch learning
on failure.  Families: decision trees/lists (superimposition-driven
candidate sets), natural-exponent monomials, and sparse polynomials over a
known grid product distribution (exact rational moment/correlation
machinery).
"""

from .dataset import CostlyDataset, ProbeLedger
from .errors import (GeneratorExhaustedError, InternalError,
                     ModelViolationError, OracleMisuseError,
                     RealizabilityError, UsageError, VarianceUnderflowError)
from .exactla import independent_rows, invert, mat_vec
from .griddist import DEFAULT_GRID, ProductDistribution
from .monomials import (RepresentationMatrix, Result, SampledConfig, degree,
                        estimate_power, eval_monomial, improve_rep_monomial,
                        learn_monomial_scratch, lfd_monomial,
                        sample_size_bound, support)
from .polynomials import (ExactCorrelation, OrthogonalBasis, Polynomial,
                          SampledCorrelation, build_orthogonal_basis,
                          improve_rep_polynomial, learn_polynomial_scratch,
                          lfd_polynomial)
from .protocol import (ROW_FIELDS, SCHEMA_VERSION, MonomialFamily,
                       PolynomialFamily, ProtocolRun, TreeFamily,
                       combined_slack, run_bootstrap_protocol,
                       run_combined_protocol, run_protocol,
                       run_restart_protocol)
from .streams import (GameResult, StreamSpec, Task, adversary_r_min,
                      fill_labels, game_failure_bound, gen_adversary_stream,
                      gen_agnostic_stream, gen_monomial_stream,
                      gen_poly_stream, gen_tree_stream, leaf_cover_dataset,
                      leaf_cover_datasets, play_single_feature_game, sample_fragment,
                      stream_to_json_obj, stump, tree_vars)
from .tree_learners import (LfdResult, bootstrap_count, improve_rep_anchor,
                            improve_rep_list, improve_rep_overcomplete,
                            improve_rep_tree, learn_tree_scratch, lfd_tree,
                            naive_lfd_seen_features)
from .trees import (InfoGain, TeacherGain, Tree, binary_entropy, conflict,
                    induce, info_gain, member_of_dt, path_repeats_var)

__version__ = "0.1.0"
