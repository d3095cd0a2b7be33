"""Call tracing from outside the library.

``Tracer.install`` replaces every public function of the library's
modules with a timing wrapper. It rebinds the name in every module that
holds the same function object, so names imported with ``from .x import
y`` are traced where they are called. No library file changes.

Spans are aggregated per call path as they close: for each path (the
names from the outermost span down) the tracer keeps the call count,
total time, the part of that time covered by child spans, rows handled,
exceptions raised, and the first start and last end. Self time is total
minus child time. Aggregating keeps memory and output small on
workloads with hundreds of thousands of per-row calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "relidistill"

# Modules whose public functions are wrapped. ``cli`` is timed by the
# benchmark's own spans around each ``cli.main`` call.
TRACED_MODULES = (
    "text_match", "consensus", "seeding", "data", "student", "curriculum",
    "metrics", "fileio",
)


def _batch_rows(args, position: int) -> int:
    if len(args) <= position:
        return 0
    shape = getattr(args[position], "shape", None)
    return int(shape[0]) if shape else 1


# Functions whose row count is recorded: name -> position of the
# argument holding the batch.
ROW_ARGS = {
    "student.augment": 0,
    "student.predict_proba": 1,
    "student.loss_and_grads": 1,
    "student.confidence": 1,
}


@dataclass
class PathStat:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    rows: int = 0
    errors: int = 0
    first_start: float = float("inf")
    last_end: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self):
        self.paths: dict[tuple[str, ...], PathStat] = {}
        # Open spans: [path, child time accumulated so far].
        self._stack: list[list] = [[(), 0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _close(self, frame, started: float, ended: float, rows: int, failed: bool):
        self._stack.pop()
        duration = ended - started
        self._stack[-1][1] += duration
        stat = self.paths.get(frame[0])
        if stat is None:
            stat = self.paths[frame[0]] = PathStat()
        stat.calls += 1
        stat.total += duration
        stat.child += frame[1]
        stat.rows += rows
        stat.errors += failed
        stat.first_start = min(stat.first_start, started - self.origin)
        stat.last_end = ended - self.origin

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI step."""
        frame = [self._stack[-1][0] + (name,), 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(frame, started, time.perf_counter(), 0, failed)

    def _wrap(self, name: str, fn):
        row_arg = ROW_ARGS.get(name)
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [stack[-1][0] + (name,), 0.0]
            stack.append(frame)
            started = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                rows = 0 if row_arg is None else _batch_rows(args, row_arg)
                close(frame, started, clock(), rows, failed)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public library function wherever it is bound.

        Call ``uninstall`` to restore the originals.
        """
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        originals = {}
        for short in TRACED_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- queries ----------------------------------------------------------

    def _matching(self, name: str, under: str | None = None):
        for path, stat in self.paths.items():
            if path[-1] == name and (under is None or under in path[:-1]):
                yield stat

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(s.calls for s in self._matching(name, under))

    def total(self, name: str, under: str | None = None) -> float:
        return sum(s.total for s in self._matching(name, under))

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self._matching(name))

    def rows(self, name: str, under: str | None = None) -> int:
        return sum(s.rows for s in self._matching(name, under))

    def errors(self, name: str) -> int:
        return sum(s.errors for s in self._matching(name))

    def layer_self_time(self, layer: str) -> float:
        """Self time of every span whose name belongs to ``layer``."""
        prefix = layer + "."
        return sum(s.self_time for p, s in self.paths.items() if p[-1].startswith(prefix))

    def call_tree(self) -> list[dict]:
        """Every call path with its aggregate, in first-start order."""
        rows = sorted(self.paths.items(), key=lambda kv: (kv[1].first_start, len(kv[0])))
        return [
            {
                "path": "/".join(path),
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "rows": s.rows,
                "errors": s.errors,
                "first_start_s": s.first_start,
                "last_end_s": s.last_end,
            }
            for path, s in rows
        ]
