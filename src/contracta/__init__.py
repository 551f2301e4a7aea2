"""Exact arithmetic for characters of contraction groups over Laurent series:
the self-duality pairing, dual shift actions, finite-field cocycles and their
central extensions, projective multipliers with their radicals, and the
Heisenberg group over F_p((t)).

Everything is integer-exact; verification sweeps live in `suites` and behind
the `contracta` command line.

The public names below load their defining module on first use, so importing
the package, or running one command, loads only the modules it calls.
"""

import importlib

# `laurent` and `padic` name both a submodule and a function.  Loading a
# submodule binds the package attribute of its name to the module, and a
# module `__getattr__` never runs for an attribute that exists, so these two
# are imported here: later loads of the submodules find them already loaded.
from .laurent import laurent
from .padic import padic

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "cocycles": ("CocycleSpec", "check_cocycle_laws", "eta", "theta"),
    "errors": (
        "ContractaError", "DepthExceeded", "InvalidParams", "InvariantViolation", "MixedModulus",
        "MixedPrime", "MixedShape", "ParseError", "SchemaError", "UnknownSuite", "UnsupportedOperands",
    ),
    "duality": (
        "BlockElem", "BlockSpec", "EBlock", "TBlock", "chi_char", "contraction_time",
        "dual_action_E", "dual_action_T", "nonclosed_orbit_witness",
    ),
    "extensions": (
        "ExtElem", "derived_witness", "ext_alpha", "ext_commutator", "ext_elem", "ext_identity",
        "ext_inv", "ext_mul", "predicted_monomial_commutator",
    ),
    "heisenberg": (
        "HeisElem", "OrbitDesc", "heis_char", "heis_dual_action", "heis_elem", "heis_identity",
        "heis_inv", "heis_mul", "lau_div", "n_slice", "orbit_description",
    ),
    "laurent": (
        "LaurentElem", "lau_add", "lau_monomial", "lau_mul", "lau_neg", "lau_scale", "lau_shift",
        "lau_sub", "lau_valuation", "lau_zero", "laurent", "series_from_json", "series_to_json",
        "series_to_text", "text_to_series",
    ),
    "multipliers": (
        "MultiplierSpec", "SOmegaReport", "check_multiplier_axioms", "h_omega", "in_s_omega",
        "mackey_identity_check", "omega", "omega2", "omega2_closed_form", "s_omega_window",
        "tail_character_index", "type_i_verdict",
    ),
    "padic": (
        "PadicElem", "PolyData", "companion_matrix", "contractivity_certificate", "dual_companion",
        "frac_part", "int_part", "padic", "poly", "psi_char",
    ),
    "scalars": (
        "Modulus", "TorusElem", "gf_rank", "is_prime", "torus_from_fraction", "torus_identity",
        "torus_inv", "torus_mul",
    ),
    "suites": ("run_suite", "suite_names"),
    "sweep": ("window_elements", "window_id"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    # Looked up on every access and never cached here, so a function that is
    # rebound in its defining module (as the benchmark's tracer does) and then
    # restored is seen as its current binding.
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
