"""Ergodic averages of polynomial orbits in primes on a-adic groups:
exact truncated arithmetic, dual characters, generalized Gauss-sum
multipliers, prime Weyl sums, and the multiplier-predicted limits."""

import types

from .adic import (AdicInt, Digits, add_carry, add_mod, embed, from_digits,
                   include_in_window, mul, poly_mod, to_digits)
from .basis import BUDGETS, Basis, parse_basis
from .characters import (Character, ReducedPhase, char_value, parse_character,
                         reduce_phase, unit_phase)
from .ergodic import (CylinderFunction, Spectrum, compare, cylinder_from_dict,
                      cylinder_to_dict, dft, empirical_average, idft,
                      predicted_limit, torus_average, torus_averages, translate)
from .multipliers import (BudgetError, MultiplierValue, complete_exp_sum,
                          limit_distribution, multiplier_natural,
                          multiplier_prime, phase_limit, wiener_energy)
from .primes import prime_count, primes_in_range
from .weyl import (OrbitHistogram, adic_weyl_sum, adic_weyl_sums,
                   orbit_histogram, phase_sums)

__all__ = [name for name, value in globals().items()  # the imported names, no submodule
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__version__ = "0.1.0"
