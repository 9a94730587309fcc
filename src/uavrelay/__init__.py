"""Joint power-split and placement optimisation for a UAV amplify-and-forward
relay carrying short-packet traffic.

The package exposes finite-blocklength reliability metrics, two channel
models (inverse-square and elevation-angle air-to-ground), analytic and
line-search solvers for the relay placement problem, an exhaustive-search
oracle with baseline schemes, and a config-driven experiment harness.

Each public name, and each submodule, is imported on first access
(``__getattr__``), so ``import uavrelay`` compiles no solver code until a
solver is used.
"""

import importlib

__version__ = "0.1.0"

# Each public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("_record", "replace"),
        ("atg3d", "bcd_solve_3d hop_gains_3d"),
        ("channels", "ATG_PRESETS Atg3dScenario AtgEnvironment FreeSpaceScenario db_to_linear "
                     "freespace_gains"),
        ("config", "ConfigError ExperimentConfig GridSpec ProfileSpec load_config parse_config"),
        ("cubic", "cubic_real_roots depressed_real_roots"),
        ("fbl", "BlocklengthParams PowerSplit af_snr channel_dispersion "
                "decoding_error_probability q_function rate_gap rate_gap_derivative"),
        ("freespace", "SolveResult bcd_solve cubic_location_candidates "
                      "optimal_location_given_power optimal_power_for_gains"),
        ("harness", "profile_curves run_experiment write_profile_csv write_rows_csv "
                    "write_rows_json write_traces_json"),
        ("highsnr", "gamma_tilde high_snr_solve unconstrained_location"),
        ("oracle", "exhaustive_search fixed_height_baseline fixed_location_baseline "
                   "fixed_power_baseline"),
        ("search", "golden_section_max interior_local_maxima line_search_max"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also sets it as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if isinstance(value, type) or not callable(value):
        # a class or constant is kept; a function is read from its module at
        # each access, so a wrapper set on it there is never left behind here
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
