"""Every fault injected into the library to show that a claim can fail,
each written once.

FAULTS maps a label to (name, fake, claims): the library function the
fault replaces, the fake that replaces it in every cyclic_descents module
that binds that name, and the exact set of claims, by their
catalog.CLAIM_ROWS names, that fail under it over the calls of
scripts/verify_all.py's suite(True, SEED).  Adding a fault is one row,
its claim set measured on the tree the row is added to;
tests/test_verify.py asserts the whole matrix, and
scripts/output_digests.py digests each (fault, claim) pair.
"""

import importlib
import pkgutil

import cyclic_descents
from cyclic_descents import classic, colored, domains, statistics, transfer
from cyclic_descents.colored import ColoredPermutation
from cyclic_descents.domains import DomainSpec, cardinality, iterate_words
from cyclic_descents.lab import MomentReport

# the seed of the quick suite the claim sets were measured over, and of
# every seeded stream scripts/output_digests.py digests
SEED = 20261018

MODULES = [importlib.import_module(f"cyclic_descents.{m.name}")
           for m in pkgutil.iter_modules(cyclic_descents.__path__)]


def _negative_class_negated(word, real=transfer._capital_phi_word):
    # negates the images of the negative class only, at its one home; the
    # +- pair rows map only the positive word and read its negation off the
    # image, so only the claims that map single words see it
    out = real(word)
    return [-v for v in out] if word[-1] < 0 else out


def _fixup_first_sign_dropped(word, raw, real=transfer._phi_fixup):
    # merges the images in pairs.  Every rewriting path of a sweep, paired
    # or lone row, ends in the fix-up, so each split sees the same fault.
    # A negative word's image is the negated fix-up of its negation, so the
    # map stays odd and is still a bijection on each class of the suite
    out = real(word, raw)
    return [abs(v) for v in out[:1]] + out[1:]


def _first_sign_dropped(word, real=transfer._capital_phi_word):
    # merges the images in pairs
    out = real(word)
    return [abs(v) for v in out[:1]] + out[1:]


def _first_two_swapped(images, trace=None, real=transfer._psi_plus_word):
    # at degree 2 the swapped word no longer ends in +-N, so Phi cannot
    # rewrite it and the law must fail without calling it
    w = real(images, trace)
    return w[1::-1] + w[2:]


def _traced_output_changed(word, trace=None, real=transfer._phi_plus_word):
    out = real(word, trace)
    if trace is not None and len(out) > 1:
        out[1] = -out[1]
    return out


# the last word of each parity class of degree 5 mapped to the first
_REPEATED = {next(iterate_words(d, cardinality(d) - 1)): next(iterate_words(d))
             for d in (DomainSpec("CD", 5), DomainSpec("CDbar", 5))}


def _last_image_repeats_the_first(word, real=transfer._capital_phi_word):
    # one repeat per class, in the last part whatever the number of parts
    return real(_REPEATED.get(tuple(word), word))


def _descent_mask_one_short(images, real=statistics._descent_mask):
    # the loop stops one position short, so the last position never descends
    return real(images[:-1])


def _phi_last_colors_kept(p, real=colored.colored_phi):
    # keeps the last n colors instead of the first n
    return ColoredPermutation(p.n - 1, p.r, real(p).omega, p.tau[1:])


def _psi_kept_total_added(p, target_color, real=colored.colored_psi):
    # the new position adds the kept total instead of subtracting it, the
    # same color at r = 2, so only r >= 3 shows it
    last = (target_color + sum(p.tau)) % p.r
    return ColoredPermutation(p.n + 1, p.r, real(p, target_color).omega, p.tau + (last,))


def _parity_flipped(d, start, stop, real=domains._rows):
    # the last entry's sign fixes the parity of the negative count, so every
    # D, CD and CDbar row lands in the other class of its degree
    rows = real(d, start, stop)
    if d.kind not in ("D", "CD", "CDbar"):
        return rows
    return (row[:-1] + (-row[-1],) for row in rows)


FAULTS = {
    "negative class negated": ("_capital_phi_word", _negative_class_negated,
                               {"bijection-D", "bijection-Dbar", "inverses"}),
    "psi_plus first two swapped": ("_psi_plus_word", _first_two_swapped,
                                   {"colored", "inverses"}),
    "descent trigger inverted": (
        "_descent_trigger", lambda *a, real=classic._descent_trigger: not real(*a),
        {"elizalde-equivalence"}),
    "colored_phi constant": ("colored_phi", lambda p: ColoredPermutation(
        p.n - 1, p.r, tuple(range(1, p.n)), (0,) * (p.n - 1)), {"colored"}),
    "theoretical_moments wrong": (
        "theoretical_moments", lambda stat, n: MomentReport(-1, 0), {"moments"}),
    "capital_phi many-to-one": ("_capital_phi_word", _first_sign_dropped,
                                {"bijection-D", "bijection-Dbar", "inverses"}),
    "phi_plus traced output": ("_phi_plus_word", _traced_output_changed,
                               {"order-swap-properties"}),
    "fixup first sign dropped": ("_phi_fixup", _fixup_first_sign_dropped,
                                 {"inverses", "phi-descents", "stat-gaps"}),
    "last image repeats the first": ("_capital_phi_word", _last_image_repeats_the_first,
                                     {"bijection-D", "bijection-Dbar", "inverses"}),
    "descent mask one short": ("_descent_mask", _descent_mask_one_short,
                               {"corollary-counts", "phi-descents"}),
    "colored_phi last colors kept": ("colored_phi", _phi_last_colors_kept, {"colored"}),
    "colored_psi kept total added": ("colored_psi", _psi_kept_total_added, {"colored"}),
    # Phi is a bijection on the other class too, so only the bijection
    # claims' own class check, on the parity of each row's negative count,
    # tells the two parity classes of a degree apart
    "parity sign flipped": ("_rows", _parity_flipped, {"bijection-D", "bijection-Dbar"}),
}


def patches(label):
    """(module, name, fake) for each cyclic_descents module that binds the
    name FAULTS[label] replaces."""
    name, fake, _ = FAULTS[label]
    return [(mod, name, fake) for mod in MODULES if hasattr(mod, name)]
