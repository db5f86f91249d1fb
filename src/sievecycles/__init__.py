"""Exact structure of sieve survivors: wheels, counts, cycles, pairs, units.

Everything is arbitrary-precision integer and exact-rational arithmetic;
nothing here rounds.  See the README for a tour and the ``sievecycles``
command for the CLI surface.

Each public name below is listed once, under the module that defines it;
that module is imported the first time the name is looked up (PEP 562),
so ``import sievecycles`` alone imports none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "basis": ("DEFAULT_WHEEL_CAP", "CoprimeBasis", "Wheel", "build_wheel",
              "extend_wheel", "is_survivor", "iter_survivors", "killer_index",
              "make_basis", "make_prime_basis"),
    "counting": ("DEFAULT_FACTOR_CAP", "DEFAULT_ORACLE_CAP", "METHODS",
                 "CountResult", "count_by_sieve", "count_generalized_meissel",
                 "count_legendre", "count_meissel", "count_periodic",
                 "count_strictly_below", "distinct_prime_factors", "euler_phi",
                 "exact_boundary", "phi_identity_check"),
    "cycles": ("CycleTableRow", "SubdivisionInterval", "SubdivisionReport",
               "cycle_table", "subdivision", "subdivision_boundary_check",
               "total_intervals"),
    "errors": ("CapacityError",),
    "pairs": ("PairCensus", "PairFactor", "PairSpec", "enumerate_pair_centers",
              "pair_count"),
    "render": ("format_exact",),
    "ring": ("ResidueVector", "decompose", "identity", "inverse",
             "is_survivor_vector", "is_unit_vector", "multiply", "reconstruct"),
    "verify": ("CheckResult", "run_checks"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
