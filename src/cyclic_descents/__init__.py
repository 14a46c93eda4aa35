"""Descent-preserving maps between cyclic signed permutations and signed
permutations, exact statistic tables, and exhaustive claim checkers.

The package namespace is lazy (PEP 562): `import cyclic_descents` loads no
submodule, and each public name imports its module on first access, so a
caller pays only for the parts it uses.
"""

_HOMES = {
    "classic": ("phi_classic",),
    "colored": ("ColoredPermutation", "color_of", "colored_descent_set",
                "colored_phi", "colored_psi", "colored_stats",
                "is_cyclic_colored"),
    "cycles": ("CycleNotation", "SignedCycle", "from_cycles", "is_cyclic",
               "to_canonical_cycles"),
    "domains": ("BudgetError", "DomainSpec", "cardinality", "iterate",
                "make_rng", "rank", "sample", "sample_stat_batch", "unrank"),
    "lab": ("DistributionTable", "MomentReport", "NormalityReport",
            "RefinedTable", "exact_distribution", "exact_moments",
            "ks_against_normal", "ks_lattice_floor", "normality_diagnostics",
            "refined_descent_table", "theoretical_moments"),
    "permutations": ("SignedPermutation",),
    "statistics": ("DescentSet", "StatRecord", "descent_set", "stats",
                   "truncated_descent_set"),
    "transfer": ("TransferTrace", "capital_phi", "capital_psi_D",
                 "capital_psi_Dbar", "p_flag", "phi_plus",
                 "preimage_quadruple", "psi_plus"),
    "verify": ("CLAIMS", "ClaimResult"),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: mod for mod, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value
