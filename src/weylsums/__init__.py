"""Weyl sums, complete rational exponential sums, and their large-value geometry.

Subpackage map:

- ``phasecore``: exact fixed-point phases mod 1, vectorized term kernels
- ``complete_sums``: T(a) over F_p^d, identities, moments, cached tables
- ``weyl_sums``: streaming S(x;N), traces, growth-exponent scans
- ``large_values``: L_p sets, beta/kappa exponents, amplification checks
- ``cantor``: (a,b,c)-patterns, dimension estimators, certified constructions
- ``discrepancy``: exact D_N / D*_N, Koksma relation, threshold scans
- ``cli``: reproducible experiment runner

Importing the package imports none of these: the API lives in the layer
modules, which are imported by name (``from weylsums.weyl_sums import
weyl_sum``), so a process compiles only the layers it uses.
"""

__version__ = "0.1.0"
