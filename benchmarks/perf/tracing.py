"""Host-time spans recorded from the benchmark's own files.

Nothing under ``src/`` is edited: a table of each layer's public entry
points (:mod:`layers`) is wrapped at run time and restored afterwards.

* A plain function gets one span per call.
* A generator function (every simulated process and most ``repro`` ops)
  gets one span per *resume slice* — the host time between one ``send``
  and the next ``yield`` — so a sim process's host time is the sum of
  its slices and the event loop's time is not billed to whoever happens
  to be suspended.  All slices of one call share its ``first`` marker, so
  calls are still counted once.
* Functions imported by name (``from … import deflate_compress``) are
  rebound in every loaded ``repro.*`` module that holds the original
  object, and every rebinding is undone by :meth:`Tracing.restore`.

Spans nest strictly (one thread, slices are atomic), so a span's self
time is its duration minus its direct children's durations, and the self
times of all spans under a root sum to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "Entry",
    "Recorder",
    "Span",
    "Tracing",
    "layer_totals",
    "self_times",
    "write_spans",
]

# Span fields (a span is a list so its end can be filled in on exit).
LAYER, NAME, START, END, PARENT, OP, FIRST, NIN, NOUT = range(9)
Span = list


class Entry(NamedTuple):
    """One wrapped entry point."""

    module: str          # module that defines it
    qualname: str        # "func" or "Class.method"
    layer: str
    sized_arg: "int | None" = None   # positional index of the payload
    ident: "Callable[..., Any] | None" = None  # args -> op/request id


def _nbytes(obj: Any) -> int:
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return 0


class Recorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: Any = None  # the harness op current when a span opens
        # Sum of the float results generator entry points returned (the
        # library reports sim seconds that way, e.g. Fabric.transfer).
        self.returns: dict[str, float] = {}

    def begin(self, layer: str, name: str, first: bool = True,
              op: Any = None, nin: int = 0) -> int:
        if not self.active:
            return -1
        stack = self._stack
        index = len(self.spans)
        self.spans.append([
            layer, name, 0.0, 0.0, stack[-1] if stack else -1,
            self.op if op is None else op, first, nin, 0,
        ])
        stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def end(self, index: int, nout: int = 0) -> None:
        now = perf_counter()
        if index < 0:
            return
        span = self.spans[index]
        span[END] = now
        span[NOUT] = nout
        popped = self._stack.pop()
        if popped != index:  # would mean spans overlap without nesting
            raise RuntimeError(
                f"span stack corrupted: closed {index}, top was {popped}"
            )

    def take(self) -> "tuple[list[Span], dict[str, float]]":
        """Hand over the recorded spans and return sums; start afresh."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        spans, self.spans = self.spans, []
        returns, self.returns = self.returns, {}
        return spans, returns


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: "list[Span]") -> list[float]:
    """Per-span self time: duration minus direct children's durations."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


def layer_totals(spans: "list[Span]") -> dict[str, tuple[float, int]]:
    """``layer -> (self seconds, calls)`` over ``spans``."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        slot = totals.setdefault(span[LAYER], [0.0, 0])
        slot[0] += own
        if span[FIRST]:
            slot[1] += 1
    return {layer: (slot[0], slot[1]) for layer, slot in totals.items()}


def write_spans(path: str, spans: "Iterable[Span]") -> None:
    """Dump spans as JSONL (one object per span, creation order)."""
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "layer": span[LAYER], "name": span[NAME],
                "start": span[START], "end": span[END],
                "parent": span[PARENT], "op": span[OP],
                "first": span[FIRST], "bytes_in": span[NIN],
                "bytes_out": span[NOUT],
            }, default=str))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _sliced(rec: Recorder, layer: str, name: str, gen, op: Any):
    """Drive ``gen``, recording one span per resume slice.

    Transparent to the caller: yielded targets, sent values, thrown
    exceptions, the return value and ``close()`` all pass through.
    """
    first = True
    value = None
    thrown: "BaseException | None" = None
    while True:
        index = rec.begin(layer, name, first=first, op=op)
        first = False
        try:
            if thrown is not None:
                exc, thrown = thrown, None
                target = gen.throw(exc)
            else:
                target = gen.send(value)
        except StopIteration as stop:
            if type(stop.value) is float and index >= 0:
                rec.returns[name] = rec.returns.get(name, 0.0) + stop.value
            return stop.value
        finally:
            rec.end(index)
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen on the next slice
            thrown = exc


def wrap(rec: Recorder, fn: Callable, layer: str, name: str,
         sized_arg: "int | None" = None,
         ident: "Callable[..., Any] | None" = None) -> Callable:
    """The recording wrapper for ``fn`` (plain or generator function)."""
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not rec.active:
                return gen
            op = ident(*args, **kwargs) if ident is not None else rec.op
            return _sliced(rec, layer, name, gen, op)
        wrapper = gen_wrapper
    else:
        def call_wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            nin = 0
            if sized_arg is not None and len(args) > sized_arg:
                nin = _nbytes(args[sized_arg])
            op = ident(*args, **kwargs) if ident is not None else None
            index = rec.begin(layer, name, op=op, nin=nin)
            nout = 0
            try:
                result = fn(*args, **kwargs)
                if sized_arg is not None:
                    nout = _nbytes(result)
                return result
            finally:
                rec.end(index, nout)
        wrapper = call_wrapper
    return functools.wraps(fn)(wrapper)


class Tracing:
    """Install/restore the wrappers for a table of :class:`Entry`."""

    def __init__(self, entries: "Iterable[Entry]",
                 packages: "tuple[str, ...]" = ("repro", "workloads")) -> None:
        self.entries = list(entries)
        # Top-level packages whose modules get by-name imports rebound:
        # the library, and the benchmark's own workload modules.
        self.packages = packages
        self.recorder = Recorder()
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracing already installed")
        for entry in self.entries:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.qualname.rpartition(".")
            name = f"{entry.module.removeprefix('repro.')}.{entry.qualname}"
            if owner_name:  # a method: patch the class attribute
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(wrap(
                        self.recorder, raw.__func__, entry.layer, name,
                        entry.sized_arg, entry.ident))
                else:
                    wrapped = wrap(self.recorder, raw, entry.layer, name,
                                   entry.sized_arg, entry.ident)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = wrap(self.recorder, original, entry.layer, name,
                           entry.sized_arg, entry.ident)
            # Rebind every by-name import of the original object.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.partition(".")[0] not in self.packages:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
