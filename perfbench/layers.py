"""Per-layer tracing from outside the program.

The traced pass wraps the public entry points of each layer in
:class:`repro.obs.Tracer` spans.  The wrappers live here, in the
benchmark, and are installed only for the traced pass and removed
after it: the timed passes run the unmodified functions.

Every span is named after the layer (the module the wrapped function
belongs to) and carries the per-layer metric it feeds.  A layer's self
time is its spans' time minus the time of the spans nested inside them;
the self times of all layers plus the benchmark's own glue (``bench``)
add up to the traced wall time.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.obs import Tracer

__all__ = [
    "BENCH",
    "LAYERS",
    "LayerTracer",
    "install_compute_layers",
    "install_global_layers",
    "install_service_layers",
    "metric_times",
    "self_times",
]

#: The layers, named after the modules that implement them.
LAYERS = (
    "index",
    "clustering.dbscan",
    "core.local",
    "core.global_model",
    "core.relabel",
    "distributed.runner",
    "service.wire",
    "service.client",
    "service.server",
    "service.journal",
)

#: The span name of the benchmark's own code around each operation.
BENCH = "bench"


class LayerTracer:
    """Installs span wrappers around layer entry points.

    Each thread records into its own :class:`Tracer` (the tracer's span
    stack is not thread-safe) and its own work counts.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[Tracer, Counter]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _thread(self) -> tuple[Tracer, Counter]:
        """The calling thread's tracer and work counts."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = (Tracer(), Counter())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def tracer(self) -> Tracer:
        """The calling thread's tracer."""
        return self._thread()[0]

    def count(self, name: str, value: int) -> None:
        """Add ``value`` to the work count ``name``."""
        self._thread()[1][name] += int(value)

    @property
    def counts(self) -> Counter:
        """The work counts of every thread, added up."""
        total: Counter = Counter()
        for __, counts in self._threads:
            total.update(counts)
        return total

    def span(self, layer: str, metric: str | None = None):
        """Open a span on the calling thread (a ``with`` block)."""
        return self._thread()[0].span(layer, {"metric": metric} if metric else None)

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        metric: str | None,
        on_result=None,
        on_error=None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``on_result(layer_tracer, args, result)`` runs after the span
        closes, to record work counts from the call's arguments and result;
        ``on_error(layer_tracer, error)`` sees an exception on its way out.
        """
        # A class attribute is taken from the class itself, so a method
        # is restored as the plain function it was.
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)

        def traced(*args, **kwargs):
            try:
                with self.span(layer, metric):
                    result = original(*args, **kwargs)
            except Exception as error:
                if on_error is not None:
                    on_error(self, error)
                raise
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def roots(self) -> list:
        """Every thread's root spans."""
        return [root for tracer, __ in self._threads for root in tracer.roots]

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def self_times(roots) -> Counter:
    """Per layer: span time minus the time of directly nested spans."""
    out: Counter = Counter()
    stack = list(roots)
    while stack:
        span = stack.pop()
        nested = sum(child.wall_seconds for child in span.children)
        out[span.name] += span.wall_seconds - nested
        stack.extend(span.children)
    return out


def metric_times(roots) -> Counter:
    """Per metric: inclusive time of its outermost spans.

    A span nested inside another span of the same metric (a region
    query calling a range query of the same index) is not counted twice.
    """
    out: Counter = Counter()
    stack = [(root, frozenset()) for root in roots]
    while stack:
        span, active = stack.pop()
        metric = span.attrs.get("metric")
        if metric and metric not in active:
            out[metric] += span.wall_seconds
            active = active | {metric}
        stack.extend((child, active) for child in span.children)
    return out


def install_compute_layers(layers: LayerTracer, relabel_metric: str) -> None:
    """Wrap index, DBSCAN, local model, global model and relabel calls."""
    from repro.clustering.dbscan import DBSCAN
    from repro.distributed import site as client_site
    from repro.index import NeighborIndex

    # The entry points callers use; ``range_query`` is what
    # ``region_query`` calls, and a span per call there would double the
    # tracing cost of DBSCAN's many single queries.
    for cls in _index_classes(NeighborIndex):
        for attr, metric in (
            ("__init__", "index.build_s"),
            ("region_query", "index.query_s"),
            ("region_query_batch", "index.query_s"),
            ("range_query_batch", "index.query_s"),
        ):
            if attr in cls.__dict__:
                on_result = None if attr == "__init__" else _count_queries(attr)
                layers.wrap(cls, attr, "index", metric, on_result)
    layers.wrap(
        DBSCAN,
        "fit",
        "clustering.dbscan",
        "dbscan.fit_s",
        lambda lt, args, result: lt.count(
            "dbscan.region_queries", result.n_region_queries
        ),
    )
    layers.wrap(
        client_site, "build_local_model", "core.local", "local.build_s", _count_local
    )
    install_global_layers(layers)
    layers.wrap(
        client_site,
        "relabel_site",
        "core.relabel",
        relabel_metric,
        lambda lt, args, result: lt.count("relabel.points", result[0].size),
    )


def install_global_layers(layers: LayerTracer) -> None:
    """Wrap the global build and the incremental repair."""
    from repro.core.global_model import GlobalModelRepairer
    from repro.distributed import server as central_server

    layers.wrap(
        central_server,
        "build_global_model",
        "core.global_model",
        "global.build_s",
        _count_global,
    )
    layers.wrap(
        GlobalModelRepairer,
        "add_model",
        "core.global_model",
        "global.repair_s",
        lambda lt, args, result: lt.count("global.repairs", 1),
    )


def install_service_layers(layers: LayerTracer) -> None:
    """Wrap the client verbs and the wire codec functions they call."""
    from repro.service import wire
    from repro.service.client import ServiceClient

    for verb in (
        "submit",
        "query",
        "open_round",
        "await_model_delta",
    ):
        layers.wrap(
            ServiceClient,
            verb,
            "service.client",
            f"client.rtt_s.{verb}",
            on_error=_count_retry,
        )
    for fn, metric in (
        ("encode_local_model", "wire.encode_s.local_model"),
        ("encode_points", "wire.encode_s.label_query"),
        ("encode_round_open", "wire.encode_s.round_open"),
        ("encode_delta_request", "wire.encode_s.model_delta"),
        ("encode_frame", "wire.encode_s.frame"),
        ("decode_model_delta", "wire.decode_s.model_delta"),
        ("apply_model_delta", "wire.decode_s.model_delta"),
        ("decode_labels", "wire.decode_s.label_reply"),
        ("decode_status_ext", "wire.decode_s.ack"),
        ("decode_frame", "wire.decode_s.frame"),
    ):
        layers.wrap(wire, fn, "service.wire", metric)


def _index_classes(base) -> list[type]:
    seen: list[type] = [base]
    for cls in seen:
        seen.extend(sub for sub in cls.__subclasses__() if sub not in seen)
    return seen


def _count_queries(attr: str):
    batched = attr.endswith("_batch")

    def on_result(layers: LayerTracer, args, result) -> None:
        # A query nested in another index query (a batch served by
        # single queries) is part of the outer one's count.
        outer = layers.tracer().current_span()
        if outer is None or outer.name != "index":
            if isinstance(result, tuple):  # (neighbors, distances)
                result = result[0]
            layers.count("index.region_queries", len(result) if batched else 1)

    return on_result


def _count_retry(layers: LayerTracer, error: Exception) -> None:
    # A typed ``overloaded`` reply is retried by the session worker.
    if getattr(error, "status", None) == "overloaded":
        layers.count("client.retries", 1)


def _count_local(layers: LayerTracer, args, outcome) -> None:
    layers.count("local.representatives", len(outcome.model.representatives))
    layers.count("local.model_bytes", len(outcome.model.to_bytes()))


def _count_global(layers: LayerTracer, args, result) -> None:
    model = result[0]
    layers.count("global.representatives", len(model.representatives))
    layers.count("global.clusters", model.n_global_clusters)
