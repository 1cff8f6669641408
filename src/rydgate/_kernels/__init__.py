"""Propagation kernels.

The NumPy implementation in ``pure`` is the only backend; this package
re-exports its three functions:

- ``expm_hermitian(h, t)``
- ``sequence_product(hams, durations)``
- ``weighted_population_integral(hams, durations, psi0, weights, samples_per_segment)``

``BACKEND`` is always ``"pure"``.
"""

from rydgate._kernels import pure

BACKEND = "pure"

expm_hermitian = pure.expm_hermitian
sequence_product = pure.sequence_product
weighted_population_integral = pure.weighted_population_integral
