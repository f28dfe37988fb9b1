"""Distributed search fabric: shard sweeps across worker services.

The fabric composes four existing subsystems into a horizontal search
cluster — content-keyed checkpoints (:mod:`repro.search.checkpoint`),
fault policies (:mod:`repro.search.faults`), the HTTP service plumbing
(:mod:`repro.service`) and the columnar engine (:mod:`repro.engine.batch`):

* :mod:`~repro.fabric.plan` — chunk layout + problem (de)serialization,
  identified by a content-addressed run key;
* :mod:`~repro.search.merge` — the associative bounded top-k fold that
  keeps the distributed answer bit-identical to a single process;
* :mod:`~repro.fabric.chunkeval` — the per-chunk evaluators shared by
  workers and the coordinator's serial fallback;
* :mod:`~repro.fabric.coordinator` / :mod:`~repro.fabric.server` — the
  lease state machine and its HTTP face (a grown ``repro.service`` server);
* :mod:`~repro.fabric.worker` — the pull-loop client;
* :mod:`~repro.fabric.cluster` — one-call local cluster
  (``repro fabric --workers N``).

Protocol and bit-identity argument: ``docs/FABRIC.md``.
"""

from ..search.merge import TopKMerge
from .chunkeval import evaluate_chunk, evaluate_serve_chunk
from .cluster import run_fabric
from .coordinator import FabricCoordinator, FabricError
from .plan import (
    ChunkSpec,
    enumerate_serve_space,
    enumerate_space,
    fabric_run_key,
    options_from_dict,
    options_to_dict,
    plan_chunks,
    serve_fabric_run_key,
    serve_options_from_dict,
    serve_options_to_dict,
)
from .server import FabricHTTPServer, make_fabric_server
from .worker import FabricWorker, run_worker

__all__ = [
    "ChunkSpec",
    "FabricCoordinator",
    "FabricError",
    "FabricHTTPServer",
    "FabricWorker",
    "TopKMerge",
    "enumerate_serve_space",
    "enumerate_space",
    "evaluate_chunk",
    "evaluate_serve_chunk",
    "fabric_run_key",
    "make_fabric_server",
    "options_from_dict",
    "options_to_dict",
    "plan_chunks",
    "run_fabric",
    "run_worker",
    "serve_fabric_run_key",
    "serve_options_from_dict",
    "serve_options_to_dict",
]
