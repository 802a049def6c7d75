"""In-memory spans for the traced run, written out once at the end.

A span records its name, start and end (seconds on ``time.perf_counter``),
its parent span, the workload and the seed, plus any counts and the
``Dataset.stats()`` text of a Dataset the layer returned.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "seed": self.seed,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "spans": self.spans}, f, indent=1)
