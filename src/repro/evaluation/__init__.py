"""Experiment drivers reproducing every figure and table of the paper.

Each experiment contributes three layers to the shared sweep engine of
:mod:`repro.experiments`:

* a module-level *point function* (``simulate_*_point`` / ``compute_*``)
  that runs one parameter combination from picklable arguments.  All nine
  live in :mod:`repro.evaluation.points`, the one module of this package
  that imports the simulator;
* in its ``figX``/table module, a *sweep builder* (``figX_sweep``)
  describing the figure's parameter grid and naming its point function as
  ``"repro.evaluation.points:..."``, and an *assembler*
  (``assemble_figX``) folding per-point results back into the figure's
  result object;
* the classic ``run_figX`` convenience entry point, which wires the three
  together on a (by default serial, uncached) executor.

Building, counting and hashing a sweep therefore never loads the
simulator; resolving a point function loads all of it, once (see "Import
layering" in ``docs/architecture.md``).  The names below resolve on first
access for the same reason.
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, resolved on first access.
_EXPORTS = {
    "ExperimentSettings": "settings",
    "run_fig5": "fig5",
    "Fig5Result": "fig5",
    "fig5_sweep": "fig5",
    "run_fig6": "fig6",
    "Fig6Result": "fig6",
    "fig6_sweep": "fig6",
    "run_fig7": "fig7",
    "Fig7Result": "fig7",
    "fig7_sweep": "fig7",
    "run_fig10": "fig10",
    "Fig10Result": "fig10",
    "fig10_sweep": "fig10",
    "run_power_table": "power_table",
    "PowerTableResult": "power_table",
    "power_sweep": "power_table",
    "run_physical_tables": "physical_tables",
    "PhysicalTablesResult": "physical_tables",
    "physical_sweep": "physical_tables",
    "run_workloads": "workloads",
    "WorkloadCatalogueResult": "workloads",
    "workloads_sweep": "workloads",
    "run_topologies": "topologies",
    "TopologyCatalogueResult": "topologies",
    "topologies_sweep": "topologies",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
