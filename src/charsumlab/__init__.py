"""charsumlab: exact mixed character sums and their verification campaigns.

The package constructs Dirichlet and finite-field characters exactly,
evaluates every incomplete and complete sum shape needed by Burgess-type
arguments, counts Vinogradov systems and multiplicative energies exactly,
and runs deterministic desk-scale verification campaigns that report
measured implied constants.
"""

from .cache import cache_clear, cache_ls, get_j_count
from .campaigns import (CampaignConfig, chang_epsilon, compare_exponents,
                        phi_factor, run_campaign, theorem_exponent)
from .characters import (DirichletCharacter, PrimeCharacter,
                         build_prime_character, crt_character,
                         enumerate_primitive_characters, find_primitive_root,
                         principal_character, sample_primitive_characters)
from .energy import cong_energy, ff_box_energy, linear_forms_energy
from .ffield import (FieldCharacter, FieldElement, FieldSpec, additive_char,
                     box_elements, build_field, fadd, fmul, trace)
from .meanvalues import (VinogradovParams, exact_W_field, exact_W_multichar,
                         exact_W_squarefree, lemma_rhs, vinogradov_count_mitm)
from .modular import (ResidueVector, SquarefreeModulus, crt_combine, crt_split,
                      divisor_count, factor_squarefree, mod_inverse)
from .reports import VerificationReport, emit_report
from .sums import (LinearSystem, RealPolynomial, box_mixed_sum, eval_fraction,
                   eval_phase, linear_forms_mixed_sum, mixed_sum,
                   multi_char_mixed_sum, pairwise_sum)

__version__ = "0.1.0"
