"""Desk-scale numerics for coupled evolution inclusions.

Subpackage map:

* ``paths``: uniformly sampled time paths with trapezoid time integration.
* ``geometry``: convex bodies, certified projections, Hausdorff brackets,
  and the executable convex-analysis lemma checks.
* ``rhs``: hull-valued right-hand-side families with growth envelopes.
* ``selection``: node-wise selections of image hulls along state paths and
  the eps-close regeneration bound.
* ``semigroup``: spectral propagators, exact-step inhomogeneous solves,
  resolvent smoothing, and the rough-data deviation profile.
* ``monotone``: the variable-exponent gradient flow under proximal
  implicit Euler.
* ``solver``: window constants, the coupled map of one window and the
  relaxed projection iteration over it, global continuation, and the
  inequality probes.
* ``forks``: independent pieces of one command on several CPUs, by fork.
* ``config`` / ``suites`` / ``cli``: experiment files, property batteries,
  and the command-line surface.
"""

__version__ = "0.1.0"
