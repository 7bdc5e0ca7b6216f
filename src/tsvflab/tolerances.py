"""Every numerical tolerance of the package, each with its derivation.

A threshold decides whether an amplitude, a norm or a trace is zero, whether
a tag holds, and whether a readout stands above its roundoff.  Each is named
once here, next to the roundoff model or the physical scale it comes from,
and each deciding module imports it by name (so ``qcore.STRUCTURAL_TOL`` and
the like still resolve, and a test may patch the copy a module reads).

The roundoff model is float64's: eps = 2**-52 ~ 2.2e-16 is the spacing of
floats at 1, and a sum of n terms of unit scale is off by at most about
n eps (a dot product or squared norm, in any summation order).  The largest
n here is 4096, the largest grid and system dimension, at which n eps is
9.1e-13.  ``perfbench/oracles.py`` restates ``METRIC_FLOOR`` rather than
importing it, since an oracle must not import the code it checks.
"""

# ---------------------------------------------------------------------------
# Tags and zeros (qcore, weakmeas, interferometer, pointer).

#: A state is tagged normalized when |<psi|psi> - 1| <= this, an operator
#: hermitian when max |A - A^dag| <= this.  A squared norm of n <= 4096 unit
#: amplitudes carries roundoff up to n eps = 9.1e-13, and A - A^dag of an
#: operator built hermitian is exactly 0 or a few eps an entry, so 1e-12
#: admits both; a state typed to fewer digits is for the plan's
#: ``AUTO_NORMALIZE_WINDOW`` to repair.
STRUCTURAL_TOL = 1e-12

#: A squared norm below this counts as zero: a dark branch, an empty state.
#: It lies 8 decades above the least normal float (2.2e-308), so a
#: probability above it keeps full relative precision, and a unit-scale
#: readout divided by it stays finite (below 1e300).
ZERO_PROBABILITY_FLOOR = 1e-300

#: At |<out|in>| <= this the selection is orthogonal: the detector is dark
#: and the weak value, which divides by <out|in>, is undefined.  <out|in> of
#: two unit vectors is exact zero up to n eps (9.1e-13 at n = 4096; a
#: network's dark port reads a few eps), and a weak value over 1e-12 would
#: magnify the numerator's roundoff by 1e12.
ORTHOGONAL_OVERLAP_TOL = 1e-12

#: A post-selection probability above this is no roundoff of 1 but an error
#: (a non-unitary coupling, an unnormalized selection).  The squared norm of
#: a branch of a unit coupled state exceeds 1 by at most its roundoff, n eps
#: = 9.1e-13 at 4096 points, plus the selections' ``STRUCTURAL_TOL``; this
#: leaves a factor of 1000 above both.
PROBABILITY_CEILING = 1.0 + 1e-9

#: ``two_state_vector`` checks that a slice's arms cover the occupied modes:
#: the arm pairing sum_arm conj(backward) forward must equal <back|fwd> to
#: this, relative to max(1, |<back|fwd>|).  Both sum at most n_modes
#: products of unit-norm amplitudes and differ by n_modes eps at most; an
#: occupied mode left unlabeled shifts the arm pairing by its own product.
PAIRING_TOL = 1e-12

#: The qubit ready state's global phase is fixed on its first amplitude
#: above this.  A Pauli eigenvector from ``eigh`` holds components that are
#: 0 to within eps or of modulus 1/sqrt(2), so any floor between a few eps
#: and 0.7 picks the same pivot; 1e-12 lies far from both.
QUBIT_PIVOT_FLOOR = 1e-12

#: ``moments`` rejects <psi|A|psi> / <psi|psi> of a hermitian A whose
#: imaginary part exceeds this.  For an exactly hermitian A that part is
#: roundoff of about dim eps max|A| (9.1e-13 max|A| at dim 4096), so 1e-10
#: admits entries up to about 100 at the largest dimension; beyond it A's
#: anti-hermitian residue, which ``STRUCTURAL_TOL`` allows an entry, is
#: reported rather than dropped.
MOMENT_IMAG_TOL = 1e-10

#: A Gaussian pointer's spread lies in this range.  Its grid coordinates q
#: reach at most 512 spreads (spacing <= spread / 4 at <= 4096 points), so
#: q^2 <= 2.6e205 at the top and 4 spread^2 >= 4e-200 at the bottom: both
#: stay finite and normal, a hundred decades inside float64's range.
SPREAD_RANGE = (1e-100, 1e100)

# ---------------------------------------------------------------------------
# Order fits and weak traces (limits, interferometer, schedule).

#: Metric values at or below this floor count as identically zero: they are
#: left out of the order fit and counted, so exact invariance is never read
#: as a very high order.  The metrics are norms of differences of unit
#: vectors, at most 2, read to an absolute roundoff of a few eps; 1e-14 is
#: 45 eps.  A first-order metric at the default g_min = 1e-4 reads about
#: 1e-4 and a second-order one 1e-8, far above it.
METRIC_FLOOR = 1e-14

#: The smallest coupling phase of a weak trace: g on the qubit
#: environments, times the target's generator spread (1 / (2 spread) on the
#: grid).  A second-order trace weighs two such phases squared, >= 1e-280,
#: which keeps it 20 decades above ``ZERO_PROBABILITY_FLOOR``.
TRACE_MIN_PHASE = 1e-70

#: An order fit's g-schedule spans a decade when log10(g_max / g_min) >=
#: 1 - this.  Ends typed a decade apart (1e-2, 1e-3) give a ratio of 10 to
#: within a few ulp, whose log10 may fall a few eps short of 1; the slack
#: admits those and rejects any span short of a decade by more than a
#: relative 2.3e-9 (10^(1e-9) - 1).
DECADE_SLACK = 1e-9

# ---------------------------------------------------------------------------
# The run plan's guards (scenario).

#: ``plan`` normalizes a selection state whose norm is off 1 by less than
#: this, with a warning, and rejects one off by more.  Amplitudes typed to
#: six or seven significant digits (0.707107, 0.707107) miss unit norm by a
#: few 1e-7, which the window admits; a norm off by more is a wrong state,
#: not a rounded one.
AUTO_NORMALIZE_WINDOW = 1e-6

#: ``plan`` brackets max|lambda| by the largest Frobenius norm F of the
#: observables, in [F / sqrt(dim), F], and widens the bracket by this,
#: relative, at both ends, so that it holds the max|lambda| that ``eigvalsh``
#: would compute: F (a sum of dim^2 squares) and that max|lambda| each
#: carry a relative roundoff of about dim eps, 9.1e-13 at dim 4096.  When
#: the guards pass at both ends the spectrum is never taken.
FROBENIUS_MARGIN = 1e-9

#: The largest roundoff a readout may carry, relative to its smallest
#: shift: <Q> is read to about eps * half_width on a grid pointer, and the
#: smallest shift is g_min * max|lambda|.  Their ratio reads about 100
#: times the measured error, so this admits errors up to about 1e-4.
READOUT_ACCURACY = 1e-2

#: The same for a qubit pointer, whose readout Pauli has unit eigenvalues,
#: so <Q> is read to about eps.  There the ratio reads about twice the
#: measured error (at most 0.55 eps / (g_min max|lambda|) over 24 generated
#: qubit weak values), so this too admits errors up to about 1e-4.
QUBIT_READOUT_ACCURACY = 2e-4
