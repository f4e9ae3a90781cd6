"""The fixed sets of states and configurations the tests and
tests/base_ab.py measure on, each defined here alone.

- The 660-state set: each (s, edge) family of STATE_FAMILIES at every
  level of STATE_LEVELS, n = 0-40, 100, 200 and 500.  Edges are Edge
  values, "none" for a bound level, so a script that loads two trees of
  the package can read them with either tree's Edge.
- The 96-configuration set: each coupling of COUPLINGS with each (a, m)
  of SCALES, at n_max = 0 and 2.

pytest does not collect this file (its name has no test_ prefix).
"""

BAND_COUPLINGS = (0.05, 0.2, 0.4, 0.45, 0.5)
BOUND_COUPLINGS = (0.7, 2.0, 8.0, 30.0, 100.0)
STATE_FAMILIES = ([(s, "lower") for s in BAND_COUPLINGS]
                  + [(s, "upper") for s in BAND_COUPLINGS]
                  + [(s, "none") for s in BOUND_COUPLINGS])
STATE_LEVELS = (*range(41), 100, 200, 500)

COUPLINGS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.5, 0.6, 1.0, 1.5, 2.0, 3.0, 5.0,
             10.0, 30.0)
SCALES = ((1.0, 1.0), (2.5, 0.7), (0.3, 4.0))
