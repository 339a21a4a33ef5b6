"""Spans and self time for the traced benchmark run.

The traced run (``--trace 1``) wraps the public functions of each
simulator layer *from the benchmark's own files*: nothing in ``src/``
knows it is being measured.  A wrapper records one span per call
(name, start, end, parent, cell id) and charges the call's duration,
minus the time its wrapped children took, to the span's *self time*.

Patching rules, learned from the hot loops that hoist names:

* Methods are patched on the class, so ``self.network.push`` and a
  bound method cached in a local (``HopWorker.run`` keeps
  ``optimizer.step``, ``network.push`` and ``update_queue.dequeue``
  in locals) both resolve to the wrapper, as long as the wrappers are
  installed *before* clusters are built and run.
* Functions imported by name (``core/worker.py`` imports
  ``standard_reduce``) are patched in every module that looks them up.
* Generator functions (``HopWorker.run``) get a generator wrapper that
  times each resumption, so a worker's own bytecode is charged to
  ``core`` and not to the event loop that resumes it.

Counters and self times are kept per thread (the in-process service
answers HTTP on several threads) and merged on read.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "counts", "spans",
                 "next_id", "thread")

    def __init__(self, thread: str) -> None:
        #: One ``[child_seconds, span_id]`` frame per open span.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.next_id = 0
        self.thread = thread


class Recorder:
    """Accumulates spans, self time, inclusive time and counters.

    ``keep_spans`` toggles whether individual spans are kept in memory
    (for :meth:`write_spans`); the aggregates are always kept.
    """

    def __init__(self) -> None:
        self.keep_spans = True
        #: Label of the cell being run; stamped on every span.
        self.cell = ""
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- span bookkeeping ------------------------------------------------
    def enter(self) -> Tuple[_ThreadState, float]:
        state = self._state()
        state.next_id += 1
        state.stack.append([0.0, state.next_id])
        return state, _clock()

    def leave(self, state: _ThreadState, name: str, start: float) -> None:
        end = _clock()
        stack = state.stack
        child, span_id = stack.pop()
        duration = end - start
        state.self_s[name] += duration - child
        state.incl_s[name] += duration
        state.calls[name] += 1
        parent = 0
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        if self.keep_spans:
            state.spans.append((span_id, parent, name, start, end, self.cell))

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    # -- reading ---------------------------------------------------------
    def _merged(self, attribute: str) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in getattr(state, attribute).items():
                merged[key] += value
        return merged

    def self_seconds(self) -> Dict[str, float]:
        return self._merged("self_s")

    def inclusive_seconds(self) -> Dict[str, float]:
        return self._merged("incl_s")

    def calls(self) -> Dict[str, float]:
        return self._merged("calls")

    def counts(self) -> Dict[str, float]:
        return self._merged("counts")

    def write_spans(self, path: Path) -> int:
        """Write every kept span as gzipped CSV; returns the row count."""
        with self._lock:
            states = list(self._states)
        rows = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("thread,span,parent,name,start_s,end_s,cell\n")
            for state in states:
                for span_id, parent, name, start, end, cell in state.spans:
                    out.write(
                        f"{state.thread},{span_id},{parent},{name},"
                        f"{start:.9f},{end:.9f},{cell}\n"
                    )
                    rows += 1
        return rows


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def wrap_call(recorder: Recorder, name: str, fn: Callable,
              on_call: Optional[Callable] = None) -> Callable:
    """A wrapper charging each call of ``fn`` to span ``name``.

    ``on_call(recorder, args, kwargs)`` runs before the call, for
    counters that read the arguments (bytes pushed, for instance).
    """
    enter, leave = recorder.enter, recorder.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(recorder, args, kwargs)
        state, start = enter()
        try:
            return fn(*args, **kwargs)
        finally:
            leave(state, name, start)

    return wrapper


def _drive(recorder: Recorder, name: str, gen):
    """Re-yield ``gen`` unchanged, timing each resumption as a span."""
    enter, leave = recorder.enter, recorder.leave
    value = None
    error: Optional[BaseException] = None
    while True:
        state, start = enter()
        try:
            if error is not None:
                pending, error = error, None
                target = gen.throw(pending)
            else:
                target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            leave(state, name, start)
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the inner generator
            error = exc
            value = None


def wrap_generator(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """Like :func:`wrap_call` for a generator function."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        outer = _drive(recorder, name, inner)
        outer.__name__ = inner.__name__
        return outer

    return wrapper


class Patches:
    """Installed attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        #: ``module:path`` of every target that could not be found.
        self.missing: List[str] = []

    def replace(self, module: str, path: str, wrapper_of) -> None:
        """Replace ``module.path`` by ``wrapper_of(original)``.

        ``path`` is ``name`` or ``Class.method``; a method is replaced
        on the class that defines it, so bound methods looked up later
        (and cached in locals) resolve to the wrapper.
        """
        try:
            owner = importlib.import_module(module)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{path}")
            return
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_of(original))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
