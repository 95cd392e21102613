"""Number variance of dilated integer sequences, in exact 128-bit arithmetic.

Subpackages by topic: points (sequences, dilation, continued fractions),
variance (the two exact V(N,S) routes), dyadic (plateau decomposition of the
tent kernel), arithmetic (representation numbers, energies, gcd sums and
divisibility counts), baselines (random and Kronecker references).  Their public names are
re-exported here.  The command line, with its scans and output, is
numvar.cli; it is not imported by the package.
"""

from .arithmetic import (BudgetExceeded, RepTable, additive_energy,
                         congruence_solution_count, difference_set,
                         divisibility_bound_check, energy_direct,
                         energy_window, gcd_average, gcd_sum,
                         normalize_polynomial, rep_quadratic_divisor,
                         rep_table, sparse_u2_mass)
from .baselines import (RandomSample, bridge_functional, bridge_path,
                        kronecker_experiment, random_variance_experiment,
                        sample_uniform)
from .dyadic import (DyadicExpansion, PlateauKernel, decompose,
                     verify_decomposition, y_statistic)
from .points import (GRID_BITS, GRID_ONE, Alpha, PointSet, SequenceSpec,
                     continued_fraction_convergents, dilate_mod1,
                     generate_terms)
from .variance import (VarianceRecord, WindowAccumulator, as_dyadic,
                       variance_pairwise, variance_sweep)

__version__ = "0.1.0"
