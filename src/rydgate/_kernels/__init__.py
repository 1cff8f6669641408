"""Propagation kernels.

The NumPy implementation in ``pure`` is the only backend; this package
re-exports its three functions, which take stacks (leading axes index
gates or segments):

- ``expm_hermitian(h, t)``: (..., n, n) with ``t`` over ``...`` -> (..., n, n)
- ``sequence_product(hams, durations)``: (..., k, n, n), (..., k) -> (..., n, n)
- ``weighted_population_integral(hams, durations, psi0, weights, samples_per_segment)``:
  (k, n, n), (k,), (m, n) initial states, (n,) -> (m,) integrals by the
  trapezoid rule on ``samples_per_segment`` intervals per segment, summed in
  closed form in each segment's eigenbasis (no sampled states);
  ``analysis.rydberg_time`` passes ``analysis.RYDBERG_TIME_SAMPLES``

The kernels assume Hermitian matrices, as ``hamiltonians.hamiltonians``
builds them, and do not check it; an eigenphase w*t that overflows raises
``ValueError``.

``BACKEND`` is always ``"pure"``.
"""

from rydgate._kernels import pure

BACKEND = "pure"

expm_hermitian = pure.expm_hermitian
sequence_product = pure.sequence_product
weighted_population_integral = pure.weighted_population_integral
