"""Spans and counters around the package's functions, recorded in memory.

The package binds its functions across modules with ``from .x import y``,
so a wrapper must replace every binding of the original object, not just
the one in its home module.  ``Patcher.install`` does that for each name
it is given and ``restore`` puts the originals back.

A span is one row ``[name, start, end, parent, phase, op, note]``: the
parent is the index of the enclosing span (-1 at the top), ``phase`` and
``op`` name the benchmark operation the span serves (a controller call, a
labelling batch, one solve), and ``note`` holds what the wrapped call
returned that the per-layer metrics need.  Self time is a span's duration
minus the part its child spans cover.
"""

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "unisafe"


def _home(qualified: str):
    module, _, name = qualified.rpartition(".")
    return sys.modules.get(module), name


class Patcher:
    """Replaces a function in every package module that bound it."""

    def __init__(self):
        self._undo = []

    def install(self, qualified: str, make_wrapper) -> None:
        """Wrap ``module.name`` with ``make_wrapper(original)`` everywhere.

        Raises LookupError when the function is missing, so a moved or
        renamed function ends the run instead of reporting zero calls (and
        zero failures) for its layer.
        """
        home, name = _home(qualified)
        original = getattr(home, name, None) if home is not None else None
        if original is None:
            raise LookupError(f"{qualified} is not in the package: nothing to wrap")
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class OpContext:
    """The benchmark operation in progress: a phase name and an index."""

    def __init__(self):
        self.phase = "setup"
        self.op = 0

    def set(self, phase: str) -> None:
        self.phase = phase
        self.op = 0

    def next(self) -> None:
        self.op += 1


class StatusCounter:
    """Counts, per phase, the exact solves that did not converge.

    Installed in every run: in the closed loops a controller call fails
    when its exact solve does not converge, and the call's result is only
    visible at the solver boundary.
    """

    def __init__(self, ctx: OpContext, converged):
        self.ctx = ctx
        self.converged = converged
        self.unconverged = Counter()

    def wrap(self, solve):
        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            if result.status is not self.converged:
                self.unconverged[self.ctx.phase] += 1
            return result

        return counted


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, ctx: OpContext):
        self.ctx = ctx
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name: str, fn, note=None):
        spans, stack, ctx = self.spans, self._stack, self.ctx
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, ctx.phase, ctx.op, None]
            spans.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if note is not None:
                row[6] = note(result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self):
        """Per span name: calls, self seconds, and the notes in call order."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, *_rest in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        notes = defaultdict(list)
        for i, (name, start, end, _parent, phase, _op, note) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if note is not None:
                notes[name].append((phase, note))
        return calls, self_s, notes

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_us", "end_us", "parent", "phase", "op", "note"])
            for i, (name, start, end, parent, phase, op, note) in enumerate(self.spans):
                writer.writerow(
                    [
                        i,
                        name,
                        f"{(start - origin) * 1e6:.1f}",
                        f"{(end - origin) * 1e6:.1f}",
                        parent,
                        phase,
                        op,
                        "" if note is None else note,
                    ]
                )
