"""Declarative scenario layer: the one path every experiment flows through.

- :mod:`repro.scenario.config` — the frozen, versioned
  :class:`ScenarioConfig` dataclass tree (gpu + scheme + workload +
  fault + engine sections) with TOML/JSON serialisation, schema-version
  checks and canonical fingerprinting;
- :mod:`repro.scenario.registry` / ``registries`` — string-keyed
  plugin registries for protection schemes, workload generators and
  engines (built-ins self-register from the modules
  that own them; third-party code registers without touching the
  harness);
- :mod:`repro.scenario.schemes` — the Killi scheme family and the
  registry-backed ``make_scheme`` / ``scheme_names``;
- :mod:`repro.scenario.runfile` — committed ``.toml`` scenario files:
  load / validate / expand / run through the parallel runner
  (``killi-experiment scenario run|list|validate`` on the CLI).

This ``__init__`` is import-light on purpose: only the registries are
loaded eagerly (they are the self-registration target for every other
layer), while the config/schemes/runfile symbols resolve lazily via
PEP 562 so that ``repro.baselines`` & friends can register during
their own import without cycles.
"""

from repro.scenario.registries import (
    ENGINE_REGISTRY,
    SCHEME_REGISTRY,
    WORKLOAD_REGISTRY,
    SchemeBuildContext,
    SchemeFactory,
)
from repro.scenario.registry import Registry

__all__ = [
    "Registry",
    "SCHEME_REGISTRY",
    "WORKLOAD_REGISTRY",
    "ENGINE_REGISTRY",
    "SchemeBuildContext",
    "SchemeFactory",
    # lazy (PEP 562):
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
