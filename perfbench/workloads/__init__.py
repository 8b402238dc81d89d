"""The benchmark's workloads, by name.

Each module provides ``setup(seed)``, ``check(state)`` (failure messages,
run before anything is timed), ``run_unit(state, tracer=None)`` (one
fixed quantum of work), ``layer_metrics(tracer, n_units, wall_s)``,
``shares(tracer, wall_s)``, ``LAYER_METRICS`` (the per-layer metrics it
exercises; the others read 0 on it), ``LAYER_SPANS`` (the spans whose
self time those metrics report) and ``ALIASES`` (what the generic
end-to-end names mean on it).
"""

from __future__ import annotations

import importlib

MODULES = {
    "abr_adversary_train": "abr_train",
    "cc_adversary_train": "cc_train",
    "corpus_eval": "corpus_eval",
    "decision_serve": "decision_serve",
}


def load(name: str):
    return importlib.import_module(f"perfbench.workloads.{MODULES[name]}")
