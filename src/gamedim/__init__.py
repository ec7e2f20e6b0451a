"""Exact computations on simple games: extremal coalitions, duals,
weightedness, and dimension/codimension with witness representations.

The namespace is lazy.  ``import gamedim`` loads no submodule; the first
lookup of an exported name or of a submodule (``gamedim.dimension``,
``gamedim.lp``, ``from gamedim import *``) imports all six submodules and
binds every exported name into the package at once, so ``vars(gamedim)``
is complete after that lookup.  A process that runs one CLI subcommand
therefore loads only the modules that subcommand imports: ``gen`` never
loads the solver, ``dataclasses`` or ``fractions``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported names by defining module.
_EXPORTS = {
    "core": (
        "ARBITRARY_WINNING",
        "EXPLICIT",
        "FORMS",
        "INTERSECTION",
        "MINIMAL_GIVEN",
        "N_MAX",
        "UNION",
        "WEIGHTED",
        "CertificateError",
        "Coalition",
        "InvalidGameError",
        "SimpleGame",
        "SizeLimitError",
        "WeightedGame",
        "combine",
        "make_explicit",
        "make_weighted",
    ),
    "lp": (
        "Constraint",
        "FarkasWitness",
        "FeasibilityResult",
        "LinearProgram",
        "rational",
        "record_certificates",
        "solve_feasibility",
        "verify_certificate",
    ),
    "structure": (
        "ExtremalSets",
        "dual",
        "dual_weighted",
        "equivalent",
        "extremal_sets",
        "is_self_dual",
        "maximal_losing",
        "minimal_winning",
    ),
    "gamefile": ("GameParseError", "parse_game", "serialize_game"),
    "generators": (
        "SSPInstance",
        "gen_example1",
        "gen_random_monotone",
        "gen_ssp",
        "gen_unanimity_composition",
        "splitmix64",
    ),
    "dimsolver": (
        "COVER_MAX",
        "DimensionWitness",
        "SeparabilityOracleCache",
        "canonical_intersection",
        "canonical_union",
        "co_realizable",
        "codimension",
        "convert",
        "dimension",
        "is_weighted",
        "realizable",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{module_name}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
