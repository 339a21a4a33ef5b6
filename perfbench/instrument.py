"""Which functions the traced run wraps, and under which span names.

Each span name is ``<layer>.<what>``; the layer is the ``repro``
package the function lives in (``optim`` is ``ml/optim.py`` and
``trace`` is ``sim/trace.py``; :data:`LAYER_OF` folds them into their
package).  :func:`install` must run before any cluster is built: see
:mod:`perfbench.spans` for why.  Targets are named by module and
attribute path, so a later change that renames one costs that metric,
not the traced run.
"""

from __future__ import annotations

import importlib
import re
from typing import Dict

from perfbench.spans import Patches, Recorder, wrap_call, wrap_generator

#: Span prefix -> the ``repro`` package whose self time it counts in.
LAYER_OF = {
    "sim": "sim",
    "trace": "sim",
    "core": "core",
    "net": "net",
    "ml": "ml",
    "optim": "ml",
    "hetero": "hetero",
    "graphs": "graphs",
    "harness": "harness",
    "protocols": "protocols",
    "compression": "compression",
    "service": "service",
}

#: Topology builders the workloads (and the service's ``by_name``) use.
GRAPH_BUILDERS = ("ring", "ring_based", "double_ring", "bipartite_ring",
                  "complete", "chain", "star", "directed_ring")

_EID = re.compile(r"count\((\d+)\)")


#: (module, attribute path, span name) of every plain call wrapper.
CALL_SPANS = (
    ("repro.sim.trace", "Tracer.log", "trace.log"),
    ("repro.core.worker", "standard_reduce", "core.reduce"),
    ("repro.core.recv", "standard_reduce", "core.reduce"),
    ("repro.core.gap", "GapTracker.record", "core.gap"),
    *(("repro.core.queues", f"{queue}.{method}", "core.queue")
      for queue in ("UpdateQueue", "RotatingUpdateQueue")
      for method in ("enqueue", "dequeue", "dequeue_available")),
    ("repro.core.queues", "TokenQueue.put", "core.queue"),
    ("repro.core.queues", "TokenQueue.acquire", "core.queue"),
    *(("repro.net.network", f"Network.{method}", "net.other")
      for method in ("send", "transfer", "rpc")),
    ("repro.hetero.compute", "ComputeModel.duration", "hetero.duration"),
    ("repro.ml.models", "Model.loss_and_grad", "ml.grad"),
    ("repro.ml.models", "Model.evaluate", "ml.eval"),
    ("repro.ml.data", "Batcher.next_batch", "ml.batch"),
    ("repro.ml.layers", "Conv2D.forward", "ml.conv_fwd"),
    ("repro.ml.layers", "Conv2D.backward", "ml.conv_bwd"),
    *(("repro.ml.layers", f"{pool}.{method}", f"ml.pool_{short}")
      for pool in ("MaxPool2D", "AvgPool2D")
      for method, short in (("forward", "fwd"), ("backward", "bwd"))),
    ("repro.ml.layers", "Dense.forward", "ml.dense"),
    ("repro.ml.layers", "Dense.backward", "ml.dense"),
    ("repro.harness.workloads", "_cnn_model_factory", "ml.model_init"),
    ("repro.harness.workloads", "_svm_model_factory", "ml.model_init"),
    ("repro.ml.optim", "SGD.step", "optim.step"),
    *(("repro.graphs.builders", builder, "graphs.build")
      for builder in GRAPH_BUILDERS),
    ("repro.graphs.topology", "Topology.validate", "graphs.validate"),
    ("repro.protocols.registry", "build_cluster", "harness.build_cluster"),
    ("repro.protocols.base", "ProtocolCluster.run", "protocols.run"),
    ("repro.compression.base", "Compressor.encode_state",
     "compression.encode"),
    ("repro.compression.base", "Compressor.compress", "compression.encode"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
    ("repro.service.journal", "RunJournal.append", "service.journal"),
)

#: Names re-exported by another module: (alias module, attribute, home
#: module).  The alias is pointed at the wrapper installed at home.
ALIASES = (
    *(("repro.graphs", builder, "repro.graphs.builders")
      for builder in GRAPH_BUILDERS),
    ("repro.protocols", "build_cluster", "repro.protocols.registry"),
    ("repro.harness.spec", "build_cluster", "repro.protocols.registry"),
)


def install(recorder: Recorder) -> Patches:
    """Wrap every measured function; returns the patches to undo.

    A target the simulator no longer has is skipped and listed in
    ``Patches.missing``; its metrics then read 0.
    """
    patches = Patches()

    def call(name, on_call=None):
        return lambda fn: wrap_call(recorder, name, fn, on_call)

    for module, path, name in CALL_SPANS:
        patches.replace(module, path, call(name))
    for module, attribute, home in ALIASES:
        patches.replace(module, attribute,
                        lambda _, h=home, a=attribute: getattr(
                            importlib.import_module(h), a))

    # -- sim: span plus the exact count of scheduled events --------------
    #: id -> (environment, events counted so far).  Holding the
    #: environment keeps its id from being reused by a later one.
    seen_events: Dict[int, tuple] = {}

    def run_env(fn):
        inner = wrap_call(recorder, "sim.run", fn)

        def run(self, *args, **kwargs):
            try:
                return inner(self, *args, **kwargs)
            finally:
                # Every scheduled event draws one id from ``_eid``; its
                # repr reads the counter without advancing it.
                total = int(_EID.fullmatch(repr(self._eid)).group(1))
                _, counted = seen_events.get(id(self), (self, 0))
                recorder.count("sim.events", total - counted)
                seen_events[id(self)] = (self, total)

        return run

    patches.replace("repro.sim.engine", "Environment.run", run_env)

    # -- trace: the per-series loggers the hot loops hold ----------------
    from repro.sim.trace import _noop_log

    def channel(fn):
        def wrapped_channel(self, key):
            log = fn(self, key)
            if log is _noop_log:
                return log
            return wrap_call(recorder, "trace.log", log)

        return wrapped_channel

    patches.replace("repro.sim.trace", "Tracer.channel", channel)

    # -- core: each resumption of the worker generator --------------------
    patches.replace("repro.core.worker", "HopWorker.run",
                    lambda fn: wrap_generator(recorder, "core.worker", fn))

    # -- net: pushes, and the bytes of the parameters they carry ----------
    def count_payload(rec, args, kwargs):
        payload = args[4] if len(args) > 4 else kwargs.get("payload")
        params = getattr(payload, "params", None)
        if params is not None:
            rec.count("ml.send_param_bytes", params.nbytes)

    patches.replace("repro.net.network", "Network.push",
                    call("net.push", count_payload))
    return patches
