"""Desk-scale numerics for coupled evolution inclusions.

Subpackage map:

* ``geometry``: convex bodies, certified projections, Hausdorff brackets,
  and the executable convex-analysis lemma checks.
* ``rhs``: hull-valued right-hand-side families with growth envelopes.
* ``selection``: node-wise selections of image hulls along state paths and
  the eps-close regeneration bound.
* ``semigroup``: spectral propagators, exact-step inhomogeneous solves,
  resolvent smoothing, and the rough-data deviation profile.
* ``monotone``: the variable-exponent gradient flow under proximal
  implicit Euler.
* ``solver``: window constants, the relaxed projection iteration for the
  coupled system, global continuation, and the inequality probes.
* ``config`` / ``suites`` / ``cli``: experiment files, property batteries,
  and the command-line surface.
"""

__version__ = "0.1.0"
