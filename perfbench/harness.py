"""Shared machinery: spans, method patching, statistics and provenance.

Tracing lives entirely in the benchmark.  A :class:`Tracer` records a
span (name, start, end, parent) around each call into a layer's public
functions and methods, which the workloads reach by temporarily
replacing those attributes on their classes or modules (:func:`patched`).
Nothing in ``src/`` knows it is being traced.

Self time is kept online: when a span closes, its duration minus the
time its child spans covered is added to its name's self time, and its
duration is charged to the enclosing span.  Every span is nested inside
the workload's root span, so the self times of all names sum to the
root's duration up to float rounding -- a check of this arithmetic, not
of how much time the layers cover: the root's own self time absorbs
whatever no other span does.

Spans must not straddle an ``await``: on an event loop only synchronous
sections are traced, so nesting stays strict.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path

import numpy as np

#: The span around each traced unit.  Spans whose names start with
#: ``bench.`` are the benchmark's own, not a layer's.
ROOT_SPAN = "bench.unit"
#: Time an event loop spends blocked with nothing to run; it is left out
#: of the traced wall time that layers are asked to account for.
IDLE_SPAN = "bench.idle"

#: What a metric name may contain (the benchmark contract).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Span records kept in memory for the spans file; later spans are still
#: timed and charged, only their records are dropped (and counted).
MAX_RECORDS = 400_000


class Tracer:
    """In-memory span recorder with online self-time accounting.

    ``span``/``wrap`` record one span per call.  ``wrap(..., leaf=True)``
    is for calls made per packet or per lane: the duration is still
    charged to the enclosing span and to the leaf's self time, but no
    record is kept, and no span is opened inside a leaf: its time stays
    with the leaf.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (span id, name, start, end, parent span id or -1), in closing order.
        self.records: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Counters recorded at layer boundaries (packets, lanes, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Distributions recorded at layer boundaries (waits, lags).
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._in_leaf = False

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        sid, name, start, child = self._stack.pop()
        now = self.clock()
        self._charge(name, now - start, child)
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.records) < MAX_RECORDS:
            self.records.append((sid, name, start, now, parent))
        else:
            self.dropped += 1

    def _charge(self, name: str, duration: float, child: float) -> None:
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str, leaf: bool = False):
        """``fn`` with each call recorded as a span called ``name``."""
        if leaf:
            clock = self.clock

            def leaf_call(*args, **kwargs):
                if self._in_leaf:
                    return fn(*args, **kwargs)
                self._in_leaf = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._in_leaf = False
                    self._charge(name, clock() - start, 0.0)

            return leaf_call

        def call(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return call

    def instrument(self, points):
        """Patch ``(owner, attribute, span name, leaf)`` points for a ``with``."""
        return patched(
            (owner, attr, lambda original, n=name, leaf=leaf: self.wrap(original, n, leaf))
            for owner, attr, name, leaf in points
        )

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines after one header line with the self-time table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.self_s)
        }
        with open(path, "w") as out:
            out.write(json.dumps({**header, "self_times": table,
                                  "dropped_records": self.dropped}) + "\n")
            for sid, name, start, end, parent in self.records:
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = make(original)`` for each triple.

    ``owner`` is a class or a module; the attribute must be defined on it
    directly.  Originals are restored on exit, in reverse order.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20


# -- provenance ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code when git cannot."""
    digest = sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
    }


def check_metric_names(names) -> list[str]:
    """Names that do not match :data:`METRIC_NAME`."""
    return [n for n in names if not METRIC_NAME.fullmatch(n)]
