"""Tail inference using extreme U-statistics.

A location-scale invariant estimator of the extreme value index built from
the top three order statistics of every size-m block, evaluated exactly in
O(n^2) through recursive log-space weights, together with its asymptotic
variance and bias constants, a GP maximum likelihood comparison estimator,
and a deterministic simulation harness.
"""

__version__ = "0.1.0"
