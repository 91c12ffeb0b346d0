"""Observability: sim-time tracing and a unified metrics registry.

``repro.obs`` is the telemetry layer threaded through the DPDPU
runtime.  :class:`Tracer` records nested sim-time spans across the
compute, network, and storage engines and exports Chrome
``trace_event`` JSON (loadable in Perfetto) plus a plain-text flame
summary; :class:`MetricsRegistry` gives every scattered counter and
tally one hierarchical namespace; :class:`Telemetry` bundles both for
injection via ``DpdpuRuntime(..., telemetry=...)``.

Tracing is off by default: disabled call sites hit the shared
:data:`NULL_TRACER` singleton and return :data:`NULL_SPAN`, so
instrumentation has zero overhead and never perturbs results.

The package is also the **benchmark observatory**: :mod:`.artifact`
defines the schema-versioned run artifact ``python -m repro.bench
--json-out`` writes, :mod:`.claims` encodes the paper's quantitative
claims (F1–F3, F6–F8, S9) as data for ``--check``, and
:mod:`.regress` judges one artifact's results exactly against
another's for the ``--compare`` and ``--identity`` gates.
"""

from .metrics import MetricsRegistry
from .telemetry import Telemetry
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    merge_chrome_events,
    write_merged_chrome,
)

# The observatory modules lazily import repro.bench (which imports
# repro.core, which imports this package), so they must come after
# the telemetry names above are bound.  The telemetry plane only
# needs the names above, but keeps the same ordering discipline.
from . import artifact, claims, regress  # noqa: E402
from .attr import (  # noqa: E402
    AttributionCollector,
    AttributionReport,
    OffloadAdvisor,
    RequestAttribution,
    build_report,
)
from .plane import (  # noqa: E402
    ClusterTelemetry,
    FlightRecorder,
    SloMonitor,
    SloSpec,
    SloViolation,
    TelemetrySnapshot,
)

__all__ = [
    "AttributionCollector",
    "AttributionReport",
    "ClusterTelemetry",
    "FlightRecorder",
    "OffloadAdvisor",
    "RequestAttribution",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "SloMonitor",
    "SloSpec",
    "SloViolation",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "Tracer",
    "artifact",
    "build_report",
    "claims",
    "merge_chrome_events",
    "regress",
    "write_merged_chrome",
]
