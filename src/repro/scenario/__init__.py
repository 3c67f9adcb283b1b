"""Declarative scenario layer: the one path every experiment flows through.

- :mod:`repro.scenario.config` — the frozen, versioned
  :class:`ScenarioConfig` dataclass tree (gpu + scheme + workload +
  fault + engine sections) with TOML/JSON serialisation, schema-version
  checks and canonical fingerprinting;
- :mod:`repro.scenario.schemes` — the scheme-name table (the four
  MBIST names plus the Killi grammar), ``make_scheme`` and
  ``scheme_names``;
- :mod:`repro.scenario.runfile` — committed ``.toml`` scenario files:
  load / validate / expand / run through the parallel runner
  (``killi-experiment scenario run|list|validate`` on the CLI).

The symbols resolve lazily via PEP 562, so importing
``repro.scenario`` stays cheap.
"""

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "GpuSection",
    "SchemeSection",
    "WorkloadSection",
    "FaultSection",
    "EngineSection",
    "cell_scenario",
    "as_scenario",
    "KILLI_RATIOS",
    "LV_VOLTAGE",
    "make_scheme",
    "scheme_names",
    "resolve_scheme",
    "Scenario",
    "ScenarioMatrix",
    "load_scenario",
    "run_scenario",
    "scenario_fingerprint",
]

_LAZY = {
    "SCHEMA_VERSION": "repro.scenario.config",
    "ScenarioConfig": "repro.scenario.config",
    "GpuSection": "repro.scenario.config",
    "SchemeSection": "repro.scenario.config",
    "WorkloadSection": "repro.scenario.config",
    "FaultSection": "repro.scenario.config",
    "EngineSection": "repro.scenario.config",
    "cell_scenario": "repro.scenario.config",
    "as_scenario": "repro.scenario.config",
    "KILLI_RATIOS": "repro.scenario.schemes",
    "LV_VOLTAGE": "repro.scenario.schemes",
    "make_scheme": "repro.scenario.schemes",
    "scheme_names": "repro.scenario.schemes",
    "resolve_scheme": "repro.scenario.schemes",
    "Scenario": "repro.scenario.runfile",
    "ScenarioMatrix": "repro.scenario.runfile",
    "load_scenario": "repro.scenario.runfile",
    "run_scenario": "repro.scenario.runfile",
    "scenario_fingerprint": "repro.scenario.runfile",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.scenario' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
