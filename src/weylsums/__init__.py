"""Weyl sums, complete rational exponential sums, and their large-value geometry.

Subpackage map:

- ``phasecore``: exact fixed-point phases mod 1, vectorized term kernels
- ``complete_sums``: T(a) over F_p^d, identities, moments, cached tables
- ``weyl_sums``: streaming S(x;N), traces, growth-exponent scans
- ``large_values``: L_p sets, beta/kappa exponents, amplification checks
- ``cantor``: (a,b,c)-patterns, dimension estimators, certified constructions
- ``discrepancy``: exact D_N / D*_N, Koksma relation, threshold scans
- ``cli``: reproducible experiment runner
"""

__version__ = "0.1.0"

from .phasecore import Phase, RationalPoint, phase_from_rational  # noqa: F401
from .weyl_sums import monomial_sum, weyl_sum, weyl_sum_trace  # noqa: F401
from .complete_sums import complete_sum, build_table  # noqa: F401
