"""Core population-protocol substrate: states, formulas, rules, protocols.

The public names load their submodule on first use (only
:class:`Population` needs numpy).
"""

from .._lazy import exports_of, lazy_exports

_EXPORTS = exports_of({
    "formula": (
        "ANY", "FALSE", "TRUE", "And", "Formula", "Not", "Or", "Predicate",
        "V", "Var", "all_of", "any_of", "coerce_formula",
    ),
    "population": ("Population",),
    "protocol": (
        "Protocol", "Thread", "compose", "count_matching", "single_thread",
    ),
    "rules": ("Branch", "DynamicRule", "Outcome", "Rule", "coin_rule", "rule"),
    "state": ("Field", "State", "StateSchema"),
})

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
