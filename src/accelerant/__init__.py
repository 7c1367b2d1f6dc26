"""accelerant — convergence acceleration for sequences and fixed-point iterations.

Scalar sequence transformations (Aitken, Richardson, Shanks, epsilon, rho,
theta, E-algorithm, Pade), vector extrapolation (MPE, RRE, MMPE, S-beta,
H-algorithm, vector and topological epsilon algorithms, Anderson mixing),
restarted fixed-point drivers, a TSVD regularizer with extrapolated
post-processing, and generators for classic benchmark problems.
"""

from .core import (
    BreakdownError,
    Estimate,
    SequenceWindow,
    Tableau,
    breakdown_check,
    forward_difference,
    read_sequence_file,
)

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "Estimate",
    "SequenceWindow",
    "Tableau",
    "breakdown_check",
    "forward_difference",
    "read_sequence_file",
    "__version__",
]
