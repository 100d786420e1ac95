"""GEL-S distribution toolkit: density, fitting, simulation, comparison.

Exported names and submodules load on first use (PEP 562), so a plain
`import gels` loads no numpy and `gels.cli` can configure it first.
"""

from importlib import import_module

_HOME = {
    "distribution": (
        "DistributionSummary FloatOverflowError GelSParams MomentOverflowError cdf "
        "log_norm_const log_pdf mode moment pdf quantile sample sf summary"),
    "estimation": (
        "ConfidenceIntervals Dataset DegenerateDataError FitError FitResult KGridTrace "
        "UncertaintyUnavailableError confidence_intervals fit fit_given_k "
        "information_criteria log_likelihood observed_information score"),
    "simulation": "STUDY_PARAMS StudyConfig StudyReport",
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
_MODULE_OF["run_study"] = "simulation"  # importable from gels, never listed in __all__

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        try:  # a submodule, such as gels.distribution
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
