"""Propagation kernels.

The NumPy implementation in ``pure`` is the only backend; this package re-exports its two
functions, which take stacks (leading axes index gates or segments):

- ``sequence_product(w, v, durations, order, segments, partials=False)``: (..., e, n), (..., e, n, n)
  real, (..., e), (k,), d (step, pattern) -> (..., n, n), or with ``partials`` (k, ..., n, n) U_j ... U_1
  one step at a time, the last the gate by halves with the same bits, its first half read off them
- ``weighted_population_integral(w, v, durations, order, partials, psi0, weights, samples_per_segment)``:
  (d, n), (d, n, n), (d,), (k,), (k, n, n) running products, (m, n) initial states, (n,) -> (m,)
  integrals by the trapezoid rule on ``samples_per_segment`` intervals per segment, summed in
  closed form in each segment's eigenbasis from the state at its start, without propagating
  again; ``analysis.rydberg_time`` passes ``analysis.RYDBERG_TIME_SAMPLES``

The product takes the real eigensystems of the e distinct phase-free steps of a schedule's d distinct
segments and their phase patterns (``propagation._segments``), the integral each segment's D vr;
``order`` holds each segment's index into the distinct segments (``propagation.distinct_segments``).

The kernels do not check symmetry; an eigenphase w*t beyond 2**32 in magnitude, past which eigh's
rounding swamps the gate, or a population integral that overflows raises ``ValueError``.

``BACKEND`` is always ``"pure"``.
"""

from rydgate._kernels import pure

BACKEND = "pure"

sequence_product = pure.sequence_product
weighted_population_integral = pure.weighted_population_integral
