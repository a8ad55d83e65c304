"""Weighted query relaxation (Definitions 7–8 and §4.2's mining schemes).

* :class:`~repro.relax.rules.RelaxationRule` / :class:`~repro.relax.rules.RuleSet`
  — weighted relaxation rules keyed by their domain pattern.
* :mod:`~repro.relax.mining` — mines rules from a KG via shared-instance
  overlap between type/term predicates (the style of rules TriniT mines).
* :mod:`~repro.relax.cooccurrence` — the Twitter scheme:
  ``w = #tweets(T1 ∧ T2) / #tweets(T1)``.
* :mod:`~repro.relax.space` — statistics over a query's relaxation space.
"""

from repro.relax.rules import RelaxationRule, RuleSet

__all__ = ["RelaxationRule", "RuleSet"]
