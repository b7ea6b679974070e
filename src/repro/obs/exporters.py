"""Standard-format exporters: Prometheus text and OTLP-style JSON.

The in-tree instruments (:mod:`repro.obs.metrics`,
:mod:`repro.obs.trace`, :mod:`repro.obs.monitor`) are deliberately
dependency-free Python objects; real fleets speak Prometheus and
OpenTelemetry.  This module renders the former into the latter without
importing either client library:

* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` comments, ``_total`` counters, summary quantiles), one
  sample line per instrument, monitor gauges labeled by site.
* :func:`to_otlp` — a JSON document shaped like an OTLP export request:
  ``resourceSpans`` rebuilt from the tracer's ``span_start``/``span_end``
  pairs (reliability and invariant events nested as span events) and
  ``resourceMetrics`` covering the registry plus the monitor's full
  time-series rings (one gauge data point per sample, attributed by
  site).  Valid against :data:`repro.obs.otlp_schema.OTLP_SCHEMA`.

Both are pure functions of already-collected state: exporting twice, or
never, changes no measurement.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Optional

from repro.obs import trace as obs
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor
from repro.obs.otlp_schema import validate_otlp
from repro.obs.sampler import GaugeSampler
from repro.obs.trace import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Quantiles a histogram summary exports, in label order.
_SUMMARY_QUANTILES = ("p50", "p90", "p95", "p99", "p999")


def _quantile_label(quantile: str) -> str:
    # "p50" -> "0.50"-style labels: insert the decimal point after the
    # leading digit fraction ("p999" -> "0.999").
    return f"0.{quantile[1:]}"


def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


def _prom_value(value: float) -> str:
    # Integral floats print as integers — 3, not 3.0 — matching what
    # client_golang and client_python emit for counters.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(metrics: Optional[MetricsRegistry] = None,
                  monitor: Optional[ClusterMonitor] = None, *,
                  consistency: Optional[ConsistencyMonitor] = None,
                  prefix: str = "repro") -> str:
    """Render instruments in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counter samples, gauges
    become gauges, histograms become summaries (p50/p90/p95/p99/p999
    quantile labels plus ``_sum``/``_count``).  A monitor contributes one
    gauge family per health series, labeled ``{site="..."}`` with each
    site's latest sample, plus violation and pressure counters.  A
    consistency monitor contributes its divergence gauge families the
    same way, the w_k/w_all visibility summaries, and the
    session-guarantee violation counters.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    def scalar(name: str, kind: str, help_text: str, value: Any) -> None:
        family(name, kind, help_text)
        lines.append(f"{name} {value}")

    def summary(prom: str, help_text: str, quantiles: Dict[str, Any]) -> None:
        family(prom, "summary", help_text)
        for quantile in _SUMMARY_QUANTILES:
            lines.append(
                f'{prom}{{quantile="{_quantile_label(quantile)}"}} '
                f'{_prom_value(float(quantiles[quantile]))}')
        lines.append(f"{prom}_sum {_prom_value(float(quantiles['total']))}")
        lines.append(f"{prom}_count {int(quantiles['count'])}")

    def gauges(sampler: GaugeSampler) -> None:
        """One gauge family per series, each site's latest sample."""
        for gauge_name in sampler.GAUGES:
            prom = f"{prefix}_{sampler.FAMILY}_{gauge_name}"
            family(prom, "gauge", f"{sampler.GAUGE_HELP} {gauge_name}")
            for site in sampler.sites:
                value = sampler.latest(site, gauge_name)
                if value is None:
                    continue
                label = _LABEL_RE.sub("_", site)
                lines.append(f'{prom}{{site="{label}"}} '
                             f'{_prom_value(value)}')

    if metrics is not None:
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            scalar(_prom_name(name, prefix) + "_total", "counter",
                   f"repro counter {name}", _prom_value(float(value)))
        for name, value in snapshot["gauges"].items():
            if value is not None:
                scalar(_prom_name(name, prefix), "gauge",
                       f"repro gauge {name}", _prom_value(float(value)))
        for name, quantiles in snapshot["histograms"].items():
            summary(_prom_name(name, prefix), f"repro histogram {name}",
                    quantiles)
    if monitor is not None:
        gauges(monitor)
        scalar(f"{prefix}_monitor_invariant_violations_total", "counter",
               "inline invariant checker failures", monitor.violation_count)
        scalar(f"{prefix}_monitor_samples_total", "counter",
               "health samples taken", monitor.samples)
        prom = f"{prefix}_monitor_pressure_events_total"
        family(prom, "counter",
               "ARQ reliability events (retries, timeouts, aborts, resumes)")
        for site in monitor.sites:
            label = _LABEL_RE.sub("_", site)
            for event_kind, count in sorted(monitor.pressure(site).items()):
                lines.append(
                    f'{prom}{{site="{label}",kind="{event_kind}"}} {count}')
    if consistency is not None:
        gauges(consistency)
        summary(f"{prefix}_consistency_visibility_wk_seconds",
                "write visibility latency at k replicas",
                consistency.w_k.summary())
        summary(f"{prefix}_consistency_visibility_wall_seconds",
                "write visibility latency at all sites",
                consistency.w_all.summary())
        prom = f"{prefix}_consistency_violations_total"
        scalar(prom, "counter", "session-guarantee audit violations",
               consistency.violation_count)
        for check, count in sorted(consistency.audit_counts().items()):
            lines.append(f'{prom}{{check="{check}"}} {count}')
        scalar(f"{prefix}_consistency_samples_total", "counter",
               "consistency samples taken", consistency.samples)
    return "\n".join(lines) + "\n" if lines else ""


# -- OTLP-style JSON ---------------------------------------------------------------


def _nanos(time: Optional[float]) -> int:
    return int(round(time * 1e9)) if time is not None else 0


def _attr_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attrs(mapping: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [{"key": key, "value": _attr_value(value)}
            for key, value in mapping.items() if value is not None]


def _build_spans(tracer: Tracer) -> List[Dict[str, Any]]:
    spans: Dict[int, Dict[str, Any]] = {}
    for event in tracer.events:
        if event.kind == obs.SPAN_START:
            attrs = {key: value for key, value in event.fields.items()
                     if key != "name"}
            spans[event.span_id] = {
                "traceId": f"{1:032x}",
                "spanId": f"{event.span_id + 1:016x}",
                "name": str(event.fields.get("name", f"span-{event.span_id}")),
                "kind": 1,  # SPAN_KIND_INTERNAL
                "startTimeUnixNano": str(_nanos(event.time)),
                "endTimeUnixNano": str(_nanos(event.time)),
                "attributes": _attrs(attrs),
                "events": [],
            }
        elif event.kind == obs.SPAN_END:
            span = spans.get(event.span_id)
            if span is not None:
                span["endTimeUnixNano"] = str(_nanos(event.time))
        elif event.kind in obs.EXPORTED_KINDS and event.span_id in spans:
            # Every other exported kind re-publishes as a span event.
            attrs = dict(event.fields)
            if event.party is not None:
                attrs["party"] = event.party
            spans[event.span_id]["events"].append({
                "name": event.kind,
                "timeUnixNano": str(_nanos(event.time)),
                "attributes": _attrs(attrs),
            })
    return [spans[span_id] for span_id in sorted(spans)]


def _summary_entry(name: str, summary: Dict[str, float]) -> Dict[str, Any]:
    return {
        "name": name,
        "summary": {"dataPoints": [{
            "count": str(int(summary["count"])),
            "sum": float(summary["total"]),
            "timeUnixNano": "0",
            "quantileValues": [
                {"quantile": float(_quantile_label(quantile)),
                 "value": float(summary[quantile])}
                for quantile in _SUMMARY_QUANTILES],
        }]},
    }


def _sum_entry(name: str, value: int) -> Dict[str, Any]:
    return {
        "name": name,
        "sum": {
            "aggregationTemporality": 2,  # CUMULATIVE
            "isMonotonic": True,
            "dataPoints": [{"asInt": str(value), "timeUnixNano": "0"}],
        },
    }


def _gauge_entries(sampler: GaugeSampler,
                   prefix: str) -> List[Dict[str, Any]]:
    """One gauge per series of the family, one point per sample."""
    entries: List[Dict[str, Any]] = []
    for gauge_name in sampler.GAUGES:
        points: List[Dict[str, Any]] = []
        for site in sampler.sites:
            site_attrs = _attrs({"site": site})
            for time, value in sampler.series(site, gauge_name):
                points.append({
                    "asDouble": float(value),
                    "timeUnixNano": str(_nanos(time)),
                    "attributes": site_attrs,
                })
        entries.append({
            "name": f"{prefix}.{sampler.FAMILY}.{gauge_name}",
            "gauge": {"dataPoints": points},
        })
    return entries


def _metric_entries(metrics: Optional[MetricsRegistry],
                    monitor: Optional[ClusterMonitor],
                    consistency: Optional[ConsistencyMonitor],
                    prefix: str) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    if metrics is not None:
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            entries.append(_sum_entry(f"{prefix}.{name}", value))
        for name, value in snapshot["gauges"].items():
            if value is None:
                continue
            entries.append({
                "name": f"{prefix}.{name}",
                "gauge": {"dataPoints": [{"asDouble": float(value),
                                          "timeUnixNano": "0"}]},
            })
        for name, summary in snapshot["histograms"].items():
            entries.append(_summary_entry(f"{prefix}.{name}", summary))
    if monitor is not None:
        entries.extend(_gauge_entries(monitor, prefix))
        entries.append(_sum_entry(f"{prefix}.monitor.invariant_violations",
                                  monitor.violation_count))
    if consistency is not None:
        entries.extend(_gauge_entries(consistency, prefix))
        entries.append(_summary_entry(
            f"{prefix}.consistency.visibility_wk_seconds",
            consistency.w_k.summary()))
        entries.append(_summary_entry(
            f"{prefix}.consistency.visibility_wall_seconds",
            consistency.w_all.summary()))
        entries.append(_sum_entry(f"{prefix}.consistency.violations",
                                  consistency.violation_count))
    return entries


def to_otlp(tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            monitor: Optional[ClusterMonitor] = None, *,
            consistency: Optional[ConsistencyMonitor] = None,
            service_name: str = "repro",
            prefix: str = "repro") -> Dict[str, Any]:
    """An OTLP-style JSON document over collected spans and metrics.

    Simulated-clock stamps become ``timeUnixNano`` relative to epoch 0 —
    the simulation's own origin, deliberately not wall time, so two runs
    of the same schedule export identical documents.  Validate with
    :func:`repro.obs.otlp_schema.validate_otlp`.
    """
    resource = {"attributes": _attrs({"service.name": service_name})}
    scope = {"name": "repro.obs", "version": "1"}
    return {
        "resourceSpans": [{
            "resource": resource,
            "scopeSpans": [{
                "scope": scope,
                "spans": _build_spans(tracer) if tracer is not None else [],
            }],
        }],
        "resourceMetrics": [{
            "resource": resource,
            "scopeMetrics": [{
                "scope": scope,
                "metrics": _metric_entries(metrics, monitor, consistency,
                                           prefix),
            }],
        }],
    }


# -- writing export files ----------------------------------------------------------


def report_invalid(what: str, errors: List[str]) -> bool:
    """Print a document's schema violations; True when there were any."""
    if errors:
        print(f"{what} failed schema validation ({len(errors)} errors):")
        for error in errors[:10]:
            print(f"  {error}")
    return bool(errors)


def write_exports(*, tracer: Optional[Tracer],
                  metrics: Optional[MetricsRegistry],
                  monitor: Optional[ClusterMonitor] = None,
                  consistency: Optional[ConsistencyMonitor] = None,
                  prom: Optional[str] = None, otlp: Optional[str] = None,
                  html: Optional[str] = None,
                  render_html: Optional[Callable[[], str]] = None,
                  service_name: str = "repro") -> bool:
    """Write the requested Prometheus, OTLP and HTML files, in that order.

    The one export path of ``repro monitor`` and ``repro store``.  The
    OTLP document is validated before it is written; an invalid one is
    reported, stops the export, and returns False.  ``render_html``
    renders the HTML page when ``html`` names a path.
    """
    if prom is not None:
        with open(prom, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(metrics, monitor,
                                       consistency=consistency))
        print(f"wrote Prometheus dump to {prom}")
    if otlp is not None:
        document = to_otlp(tracer, metrics, monitor, consistency=consistency,
                           service_name=service_name)
        if report_invalid("OTLP export", validate_otlp(document)):
            return False
        with open(otlp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote OTLP JSON to {otlp} (schema-valid)")
    if html is not None:
        with open(html, "w", encoding="utf-8") as handle:
            handle.write(render_html())
        print(f"wrote HTML report to {html}")
    return True
