"""Support functionals, quantum functionals and asymptotic invariants of
small tensors, with exact combinatorics where possible and certified
numerical optimisation elsewhere."""

__version__ = "0.1.0"

from .asymptotics import (AsymptoticSubrankResult, CapsetReport,
                          SliceRankResult, ZResult, asympt_slicerank,
                          asympt_subrank_tight3, capset_bound,
                          modular_sum_support, reduced_polymult_support,
                          slicerank_exact_combinatorial, z_of_n)
from .entropy import (HThetaResult, MinimaxEntropyResult, ThetaWeights,
                      binary_entropy, max_H_theta, max_min_entropy,
                      shannon_entropy)
from .errors import BudgetExceededError, SingularBasisError
from .partitions import (character, irrep_dimension, kronecker_coefficient,
                         lr_coefficient, partition_entropy, partitions)
from .quantum import (AscentOptions, CertificateResult, LowerQuantumResult,
                      bipartition_projector_apply, isotypic_projector_apply,
                      lower_quantum_functional, marginal, state_array,
                      symmetrize_copies, tensor_power_array,
                      upper_quantum_certificate, von_neumann_entropy)
from .support_functionals import (BasisSearchOptions, SupportFunctionalReport,
                                  gauge_points, lower_support_functional,
                                  rho_lower_at_basis, rho_upper_at_basis,
                                  support_at_basis, upper_support_functional)
from .supports import (CombDegenerationCertificate, SubrankResult, SupportSet,
                       TightnessCertificate, TightnessReport,
                       check_comb_degeneration, check_tight, downward_closure,
                       is_antichain, is_diagonal, is_free, load_support,
                       loads_support, max_points, save_support, subrank_set,
                       subrank_set_bruteforce)
from .tensors import (COMPLEXFLOAT, RATIONAL, BasisTuple, Domain, FamilySpec,
                      Tensor, binomial_basis_matrix, build_family,
                      cap_set_tensor, coefficients_in_basis, convert, cw,
                      dicke, direct_sum, dumps_tensor, flattening_rank,
                      from_nonzeros, load_tensor, loads_tensor, matmul,
                      parse_family, poly_mult_mod, prime_field, restrict,
                      save_tensor, tensor_product, unit, w_tensor, zeros)
