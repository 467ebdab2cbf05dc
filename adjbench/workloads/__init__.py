"""The benchmark workloads, by name (imported on demand)."""

import importlib

#: workload name → ``module:Class``
WORKLOADS = {
    "construct": "adjbench.workloads.construct:Construct",
    "build": "adjbench.workloads.build:Build",
    "query": "adjbench.workloads.query:Query",
    "ingest_http": "adjbench.workloads.ingest_http:IngestHTTP",
}


def load(name: str):
    module, _, cls = WORKLOADS[name].partition(":")
    return getattr(importlib.import_module(module), cls)
