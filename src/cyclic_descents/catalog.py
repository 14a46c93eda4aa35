"""The names the command line parses, each written once.  It imports
nothing, so building the parser loads no library module.

CLAIM_ROWS holds each claim of `cycdes verify`, alphabetically: its checker
in `verify`, the keywords the claim fixes, and each flag it takes with the
checker keywords that flag sets.  A new claim is one row and its checker.
"""

KINDS = ("B", "D", "CB", "CD", "CDbar", "S", "CS", "CSnr")

CLAIM_ROWS = {
    "bijection-D": ("check_bijection", {"parity": "D"}, {"n": ("n",)}),
    "bijection-Dbar": ("check_bijection", {"parity": "Dbar"}, {"n": ("n",)}),
    "colored": ("check_colored", {}, {"n": ("n",), "r": ("r",)}),
    "corollary-counts": ("check_corollary_counts", {}, {"n": ("n",)}),
    "elizalde-equivalence": ("check_elizalde_equivalence", {}, {"n": ("n",)}),
    "inverses": ("check_inverses", {}, {"n": ("n",)}),
    "moments": ("check_moments", {}, {"n": ("n_lo", "n_hi")}),
    "order-swap-properties": ("check_order_swap_properties", {},
                              {"samples": ("count",), "seed": ("seed",)}),
    "phi-descents": ("check_phi_descents", {},
                     {"n": ("n",), "shard": ("shard",), "threads": ("threads",)}),
    "stat-gaps": ("check_stat_gaps", {}, {"n": ("n_hi",)}),
}
