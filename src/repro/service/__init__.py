"""Simulation-as-a-service: HTTP sweep API over the experiments engine.

The package turns the experiments engine into a long-running
service: submit sweeps over HTTP, watch NDJSON progress streams, fetch
results by content hash, and let the content-addressed cache deduplicate
repeated submissions.  Every job runs on the same
:class:`~repro.experiments.executor.Executor` as ``run``.  See
:mod:`repro.service.app` for the endpoint surface and
:mod:`repro.service.jobs` for the job state machine.

Start one from the CLI::

    python -m repro.experiments serve --port 7654 --workers 4 --cache disk

or in-process, on the standard library's threading HTTP server::

    from repro.experiments.cache import ResultCache
    from repro.service import SweepService
    service = SweepService(workers=1, cache=ResultCache("results")).start()
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, resolved on first access:
#: ``import repro.service.client`` — all a client script needs — must not
#: pay for the server (``http.server``, the executor, the cache).
_EXPORTS = {
    "DEFAULT_SERVICE_PORT": "app",
    "DEFAULT_TTL_S": "app",
    "IllegalTransition": "jobs",
    "Job": "jobs",
    "JobCancelled": "jobs",
    "JobState": "jobs",
    "LEGAL_TRANSITIONS": "jobs",
    "ServiceClient": "client",
    "ServiceError": "client",
    "SpecError": "app",
    "SweepService": "app",
    "build_specs": "app",
    "job_key": "jobs",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
