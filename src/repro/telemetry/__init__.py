"""Unified observability: metrics registry, span tracing, export surface.

The subsystem the rest of the reproduction reports into:

* :mod:`repro.telemetry.registry` — counters, gauges, log-bucketed
  histograms, labelled families, ``NullRegistry`` to switch it all off;
* :mod:`repro.telemetry.tracing` — explicit-context span trees (job
  lifecycles, derived on demand);
* :mod:`repro.telemetry.events` — bounded structured event log;
* :mod:`repro.telemetry.export` — Prometheus text / JSON renderers;
* :mod:`repro.telemetry.instruments` — per-subsystem shims with
  backward-compatible ``stats()`` adapters.

See README "Observability" and the DESIGN.md telemetry note for the
naming convention and the overhead contract.
"""

from repro.telemetry.events import Event, EventLog
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import DispatchTelemetry, PortalTelemetry
from repro.telemetry.registry import (
    Clock,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    WallClock,
    default_buckets,
    get_registry,
    set_registry,
)
from repro.telemetry.tracing import Span

__all__ = [
    "Clock",
    "Counter",
    "DispatchTelemetry",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "PortalTelemetry",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "WallClock",
    "default_buckets",
    "get_registry",
    "render_json",
    "render_prometheus",
    "set_registry",
]
