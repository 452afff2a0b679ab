"""In-memory spans around the benchmark's calls into the simulator.

A span has a name, a host start and end (``time.perf_counter_ns``), the
id of the span that encloses it, and free-form attributes; it inherits
the ``rep`` (repetition number) and ``mode`` attributes of the span
that encloses it.  Spans are kept in memory and written out once, when
the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List


class Spans:
    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record ``name`` around the block, as a child of the innermost
        open span."""
        span_id = len(self.records)
        parent = self._open[-1] if self._open else None
        record: Dict[str, Any] = {"id": span_id, "name": name,
                                  "parent": parent, **attrs}
        if parent is not None:
            for key in ("rep", "mode"):
                if key in self.records[parent]:
                    record.setdefault(key, self.records[parent][key])
        self.records.append(record)
        self._open.append(span_id)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def select(self, name: str, **attrs: Any) -> List[Dict[str, Any]]:
        """The closed spans called ``name`` whose attributes include
        ``attrs``, in recording order."""
        return [r for r in self.records
                if r["name"] == name and "end_ns" in r
                and all(r.get(k) == v for k, v in attrs.items())]

    def seconds(self, name: str, **attrs: Any) -> List[float]:
        """Durations of the spans ``select`` returns, in seconds."""
        return [(r["end_ns"] - r["start_ns"]) / 1e9
                for r in self.select(name, **attrs)]

    def write(self, path: Path) -> None:
        """Write every span, with its ``self_ns``: its duration minus
        the part its child spans cover."""
        self_ns = {r["id"]: r["end_ns"] - r["start_ns"] for r in self.records}
        for r in self.records:
            if r["parent"] is not None:
                self_ns[r["parent"]] -= r["end_ns"] - r["start_ns"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dict(r, self_ns=self_ns[r["id"]]) for r in self.records],
            indent=1) + "\n")
