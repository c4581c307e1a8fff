"""Live fleet dashboard: a stdlib-only HTTP/SSE server over the telemetry.

:class:`TelemetryServer` mounts four routes on a ``ThreadingHTTPServer``:

``/``
    A single-file HTML dashboard (no external assets, works air-gapped)
    showing fleet summary cards, per-stream rate/classification, per-link
    relay delivery latency and the live adaptation decision feed.
``/events``
    Server-sent events: one ``data:`` line per sampler tick carrying the
    full JSON snapshot, so any SSE client (the dashboard, ``curl``) follows
    the fleet live without polling.
``/api/snapshot``
    The latest snapshot as one JSON document.
``/metrics``
    Plain-text exposition of every registered metric (the merged
    registries of the aggregator, collectors, engine and anything passed
    explicitly) for scrapers.

A background sampler thread polls the aggregator on a fixed interval and
broadcasts to every connected SSE client through one condition variable;
client connections are served by daemon threads, so a stuck reader never
blocks sampling or other clients.

>>> from repro.core.aggregator import HeartbeatAggregator
>>> aggregator = HeartbeatAggregator()
>>> with TelemetryServer(aggregator, interval=0.05) as server:
...     server.url.startswith("http://127.0.0.1:")
True
>>> aggregator.close()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.aggregator import FleetSample, HeartbeatAggregator
from repro.net.link import host_port, listen
from repro.obs.registry import MetricsRegistry, render_registries
from repro.obs.tracing import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adapt.engine import AdaptationEngine

__all__ = ["TelemetryServer"]

#: How long one SSE write may block before the client is considered stuck.
_CLIENT_TIMEOUT = 10.0


class _DashboardHTTPServer(ThreadingHTTPServer):
    """The HTTP server on a :func:`~repro.net.link.listen` socket, carrying a reference to its owner."""

    daemon_threads = True
    telemetry: "TelemetryServer"

    def __init__(self, host: str, port: int) -> None:
        super().__init__((host, port), _Handler, bind_and_activate=False)
        self.socket.close()  # the class's unbound AF_INET socket
        self.socket = listen(host, port, self.request_queue_size)
        self.server_address = self.socket.getsockname()


class TelemetryServer:
    """Serve live fleet telemetry over HTTP and SSE.

    Parameters
    ----------
    aggregator:
        The fleet observer sampled every ``interval`` seconds.  Polls are
        serialised inside the aggregator, so sharing it with a CLI loop or
        an engine drive is safe.
    collectors:
        Collectors whose registries (ingest/relay counters) and per-link
        latencies join the page.
    engine:
        An :class:`~repro.adapt.engine.AdaptationEngine` whose decisions
        feed the live decision stream (subscribed via a
        :class:`~repro.obs.tracing.FlightRecorder` ring).
    registries:
        Extra :class:`~repro.obs.registry.MetricsRegistry` objects to merge
        into ``/metrics`` and the snapshot.
    host, port:
        Bind address, IPv4 or IPv6 (``"::1"``); port ``0`` (default) picks
        an ephemeral port — read :attr:`port` / :attr:`url` for the real one.
    interval:
        Seconds between fleet samples (and SSE events).
    max_streams:
        Cap on per-stream rows in one snapshot; larger fleets report the
        truncation count instead of shipping megabytes per tick.
    """

    def __init__(
        self,
        aggregator: HeartbeatAggregator,
        *,
        collectors: Sequence[Any] = (),
        engine: "AdaptationEngine | None" = None,
        registries: Sequence[MetricsRegistry] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        interval: float = 1.0,
        max_streams: int = 200,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._aggregator = aggregator
        self._collectors = list(collectors)
        self._engine = engine
        self._extra_registries = list(registries)
        self._interval = float(interval)
        self._max_streams = int(max_streams)

        self._traces = FlightRecorder(ring=64)
        if engine is not None:
            self._traces.attach(engine)

        self._cond = threading.Condition()
        self._closing = threading.Event()
        # First snapshot built synchronously, so no route ever serves a
        # placeholder while the sampler warms up.
        try:
            snapshot: dict[str, Any] = self._build_snapshot()
        except Exception as exc:  # noqa: BLE001 - see _sample_loop
            snapshot = {"error": str(exc)}
        self._seq = 1
        snapshot["seq"] = self._seq
        self._snapshot = snapshot

        self._httpd = _DashboardHTTPServer(host, port)
        self._httpd.telemetry = self
        self.host, self.port = self._httpd.server_address[:2]

        self._sampler = threading.Thread(
            target=self._sample_loop, name=f"hb-dashboard-{self.port}", daemon=True
        )
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"hb-dashboard-http-{self.port}",
            daemon=True,
        )
        self._sampler.start()
        self._server_thread.start()

    # ------------------------------------------------------------------ #
    # Addressing and lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """The dashboard's base URL (port 0 resolved to the bound port, an IPv6 host bracketed)."""
        return f"http://{host_port(self.host, self.port)}"

    def close(self) -> None:
        """Stop sampling, disconnect every client, release the port.  Idempotent."""
        if self._closing.is_set():
            return
        self._closing.set()
        with self._cond:
            self._cond.notify_all()  # wake SSE writers so they can exit
        self._httpd.shutdown()
        self._server_thread.join(timeout=5.0)
        self._httpd.server_close()
        self._sampler.join(timeout=5.0)
        self._traces.close()

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetryServer(url={self.url!r})"

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def registries(self) -> list[MetricsRegistry]:
        """Every registry feeding ``/metrics``, deduplicated by identity."""
        out: list[MetricsRegistry] = []
        seen: set[int] = set()
        candidates: list[MetricsRegistry] = [self._aggregator.metrics]
        for collector in self._collectors:
            registry = getattr(collector, "metrics", None)
            if isinstance(registry, MetricsRegistry):
                candidates.append(registry)
        if self._engine is not None:
            candidates.append(self._engine.metrics)
        candidates.extend(self._extra_registries)
        for registry in candidates:
            if id(registry) not in seen:
                seen.add(id(registry))
                out.append(registry)
        return out

    def render_metrics(self) -> str:
        """The merged plain-text exposition served at ``/metrics``."""
        return render_registries(self.registries())

    def snapshot(self) -> dict[str, Any]:
        """The most recent sampler snapshot (JSON-safe dict)."""
        with self._cond:
            return self._snapshot

    def wait_for_snapshot(self, seq: int, timeout: float) -> dict[str, Any] | None:
        """Block until a snapshot newer than ``seq`` exists (None on timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._seq <= seq and not self._closing.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(timeout=remaining)
            if self._closing.is_set() and self._seq <= seq:
                return None
            return self._snapshot

    def _sample_loop(self) -> None:
        while not self._closing.wait(timeout=self._interval):
            try:
                snapshot = self._build_snapshot()
            except Exception as exc:  # noqa: BLE001 - a torn sample must not kill serving
                snapshot = {"error": str(exc)}
            with self._cond:
                self._seq += 1
                snapshot["seq"] = self._seq
                self._snapshot = snapshot
                self._cond.notify_all()

    def _build_snapshot(self) -> dict[str, Any]:
        sample = self._aggregator.poll()
        streams = self._stream_rows(sample)
        links: dict[str, dict[str, float]] = {}
        relay: dict[str, dict[str, int]] = {}
        for collector in self._collectors:
            latencies = getattr(collector, "link_latencies", None)
            if latencies is not None:
                for peer, stats in latencies().items():
                    links[peer] = {k: _json_num(v) for k, v in stats.items()}
            relay_stats = getattr(collector, "relay_stats", None)
            if relay_stats is not None:
                stats = relay_stats()
                if stats:
                    endpoint = getattr(collector, "endpoint", repr(collector))
                    relay[str(endpoint)] = stats
        summary = sample.summary()
        snapshot: dict[str, Any] = {
            "time": time.time(),
            "summary": {
                "streams": summary.streams,
                "measurable": summary.measurable,
                "mean": _json_num(summary.mean),
                "minimum": _json_num(summary.minimum),
                "maximum": _json_num(summary.maximum),
                "std": _json_num(summary.std),
                "percentiles": {str(q): _json_num(v) for q, v in summary.percentiles.items()},
                "lagging": summary.lagging,
                "stalled": summary.stalled,
            },
            "streams": streams,
            "streams_truncated": max(0, len(sample.names) - self._max_streams),
            "errors": dict(sample.errors),
            "links": links,
            "relay": relay,
            "metrics": {
                name: _json_num(value)
                for registry in self.registries()
                for name, value in registry.as_dict().items()
            },
            "decisions": self._traces.recent(32),
        }
        return snapshot

    def _stream_rows(self, sample: FleetSample) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for i, name in enumerate(sample.names[: self._max_streams]):
            reading = sample.reading_at(i)
            rows.append(
                {
                    "name": name,
                    "rate": _json_num(reading.rate),
                    "total_beats": reading.total_beats,
                    "target_min": _json_num(reading.target_min),
                    "target_max": _json_num(reading.target_max),
                    "status": reading.status.value,
                }
            )
        return rows


def _json_num(value: float) -> float | None:
    """NaN/inf → None so every snapshot is strict-JSON serialisable."""
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the telemetry owner hangs off the server object."""

    server: _DashboardHTTPServer  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    @property
    def telemetry(self) -> TelemetryServer:
        return self.server.telemetry

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # request logging would drown the watch output

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/", "/index.html"):
                self._send(200, "text/html; charset=utf-8", _DASHBOARD_HTML.encode("utf-8"))
            elif path == "/metrics":
                self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                           self.telemetry.render_metrics().encode("utf-8"))
            elif path == "/api/snapshot":
                body = json.dumps(self.telemetry.snapshot()).encode("utf-8")
                self._send(200, "application/json", body)
            elif path == "/events":
                self._serve_events()
            else:
                self._send(404, "text/plain; charset=utf-8", b"not found\n")
        except (BrokenPipeError, ConnectionResetError, TimeoutError, OSError):
            pass  # client went away; nothing to salvage

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _serve_events(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.connection.settimeout(_CLIENT_TIMEOUT)
        telemetry = self.telemetry
        snapshot = telemetry.snapshot()
        seq = int(snapshot.get("seq", 0))
        if seq:
            self._write_event(snapshot)
        while not telemetry._closing.is_set():
            fresh = telemetry.wait_for_snapshot(seq, timeout=5.0)
            if fresh is None:
                self.wfile.write(b": keep-alive\n\n")  # comment frame, per SSE spec
                self.wfile.flush()
                continue
            seq = int(fresh["seq"])
            self._write_event(fresh)

    def _write_event(self, snapshot: dict[str, Any]) -> None:
        payload = json.dumps(snapshot)
        self.wfile.write(f"event: snapshot\ndata: {payload}\n\n".encode("utf-8"))
        self.wfile.flush()


_DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro · fleet telemetry</title>
<style>
  :root {
    --bg: #0d1117; --panel: #161b22; --line: #30363d; --text: #e6edf3;
    --dim: #8b949e; --green: #3fb950; --red: #f85149; --amber: #d29922;
    --blue: #58a6ff; --purple: #bc8cff;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--text);
         font: 14px/1.45 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace; }
  header { display: flex; align-items: baseline; gap: 12px; padding: 14px 20px;
           border-bottom: 1px solid var(--line); }
  header h1 { font-size: 16px; margin: 0; font-weight: 600; }
  header .sub { color: var(--dim); font-size: 12px; }
  #conn { margin-left: auto; font-size: 12px; color: var(--dim); }
  #conn.live::before { content: "●"; color: var(--green); margin-right: 6px; }
  #conn.dead::before { content: "●"; color: var(--red); margin-right: 6px; }
  main { padding: 16px 20px; display: grid; gap: 16px;
         grid-template-columns: repeat(auto-fit, minmax(420px, 1fr)); }
  section { background: var(--panel); border: 1px solid var(--line);
            border-radius: 8px; padding: 14px 16px; min-width: 0; }
  section h2 { margin: 0 0 10px; font-size: 12px; font-weight: 600;
               text-transform: uppercase; letter-spacing: .08em; color: var(--dim); }
  .cards { grid-column: 1 / -1; display: grid; gap: 12px;
           grid-template-columns: repeat(auto-fit, minmax(130px, 1fr)); }
  .card { background: var(--panel); border: 1px solid var(--line);
          border-radius: 8px; padding: 10px 14px; }
  .card .v { font-size: 22px; font-weight: 700; }
  .card .k { font-size: 11px; color: var(--dim); text-transform: uppercase;
             letter-spacing: .06em; }
  .card.warn .v { color: var(--amber); }
  .card.bad .v { color: var(--red); }
  table { width: 100%; border-collapse: collapse; font-size: 13px; }
  th, td { text-align: left; padding: 4px 8px; white-space: nowrap; }
  th { color: var(--dim); font-weight: 500; border-bottom: 1px solid var(--line); }
  tbody tr:nth-child(odd) { background: rgba(255,255,255,.02); }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .status { padding: 1px 8px; border-radius: 10px; font-size: 11px; }
  .status.healthy { background: rgba(63,185,80,.15); color: var(--green); }
  .status.slow    { background: rgba(210,153,34,.15); color: var(--amber); }
  .status.fast    { background: rgba(88,166,255,.15); color: var(--blue); }
  .status.stalled { background: rgba(248,81,73,.15); color: var(--red); }
  .status.unknown { background: rgba(139,148,158,.15); color: var(--dim); }
  #decisions { max-height: 300px; overflow-y: auto; }
  .decision { padding: 3px 0; border-bottom: 1px dashed var(--line);
              color: var(--dim); font-size: 12px; }
  .decision b { color: var(--purple); font-weight: 600; }
  .empty { color: var(--dim); font-style: italic; padding: 8px 0; }
  footer { padding: 10px 20px; color: var(--dim); font-size: 12px;
           border-top: 1px solid var(--line); }
  footer a { color: var(--blue); text-decoration: none; }
</style>
</head>
<body>
<header>
  <h1>repro fleet telemetry</h1>
  <span class="sub">application heartbeats, watching themselves</span>
  <span id="conn" class="dead">connecting…</span>
</header>
<div class="cards" style="padding: 16px 20px 0;">
  <div class="card"><div class="v" id="c-streams">–</div><div class="k">streams</div></div>
  <div class="card"><div class="v" id="c-mean">–</div><div class="k">mean rate</div></div>
  <div class="card"><div class="v" id="c-p99">–</div><div class="k">p99 rate</div></div>
  <div class="card" id="card-lagging"><div class="v" id="c-lagging">–</div><div class="k">lagging</div></div>
  <div class="card" id="card-stalled"><div class="v" id="c-stalled">–</div><div class="k">stalled</div></div>
  <div class="card"><div class="v" id="c-decisions">–</div><div class="k">decisions</div></div>
</div>
<main>
  <section style="grid-column: 1 / -1;">
    <h2>Streams <span id="truncated" style="text-transform:none"></span></h2>
    <table>
      <thead><tr><th>stream</th><th class="num">rate</th><th class="num">beats</th>
        <th class="num">target</th><th>status</th></tr></thead>
      <tbody id="streams"><tr><td colspan="5" class="empty">waiting for data…</td></tr></tbody>
    </table>
  </section>
  <section>
    <h2>Relay links — delivery latency</h2>
    <table>
      <thead><tr><th>peer</th><th class="num">frames</th><th class="num">p50</th>
        <th class="num">p99</th><th class="num">max</th></tr></thead>
      <tbody id="links"><tr><td colspan="5" class="empty">no relay links</td></tr></tbody>
    </table>
  </section>
  <section>
    <h2>Adaptation decisions</h2>
    <div id="decisions"><div class="empty">no decisions yet</div></div>
  </section>
</main>
<footer>
  <a href="/metrics">/metrics</a> · <a href="/api/snapshot">/api/snapshot</a> ·
  <a href="/events">/events</a> (SSE)
</footer>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const fmt = (v, digits = 2) =>
  (v === null || v === undefined) ? "–" : Number(v).toFixed(digits);
const ms = (v) => (v === null || v === undefined) ? "–" : (v * 1000).toFixed(2) + " ms";

function render(s) {
  const sum = s.summary || {};
  $("c-streams").textContent = sum.streams ?? "–";
  $("c-mean").textContent = fmt(sum.mean);
  $("c-p99").textContent = fmt((sum.percentiles || {})["99.0"]);
  $("c-lagging").textContent = sum.lagging ?? "–";
  $("c-stalled").textContent = sum.stalled ?? "–";
  $("card-lagging").className = "card" + (sum.lagging > 0 ? " warn" : "");
  $("card-stalled").className = "card" + (sum.stalled > 0 ? " bad" : "");
  $("c-decisions").textContent =
    s.metrics ? (s.metrics["engine_decisions_total"] ?? "–") : "–";

  const streams = s.streams || [];
  $("truncated").textContent =
    s.streams_truncated ? `(showing ${streams.length}, ${s.streams_truncated} more)` : "";
  $("streams").innerHTML = streams.length ? streams.map((r) => `
    <tr><td>${r.name}</td><td class="num">${fmt(r.rate)}</td>
    <td class="num">${r.total_beats}</td>
    <td class="num">${fmt(r.target_min, 1)}–${fmt(r.target_max, 1)}</td>
    <td><span class="status ${r.status}">${r.status}</span></td></tr>`).join("")
    : '<tr><td colspan="5" class="empty">no streams</td></tr>';

  const links = Object.entries(s.links || {});
  $("links").innerHTML = links.length ? links.map(([peer, l]) => `
    <tr><td>${peer}</td><td class="num">${l.count ?? 0}</td>
    <td class="num">${ms(l.p50)}</td><td class="num">${ms(l.p99)}</td>
    <td class="num">${ms(l.max)}</td></tr>`).join("")
    : '<tr><td colspan="5" class="empty">no relay links</td></tr>';

  const decisions = (s.decisions || []).slice().reverse();
  $("decisions").innerHTML = decisions.length ? decisions.map((d) => `
    <div class="decision">tick ${d.tick ?? d.beat} <b>${d.loop}</b>
    rate ${fmt(d.observed_rate)} → ${fmt(d.before, 1)} ⇒ ${fmt(d.after, 1)}</div>`).join("")
    : '<div class="empty">no decisions yet</div>';
}

function connect() {
  const source = new EventSource("/events");
  source.addEventListener("snapshot", (ev) => {
    $("conn").className = "live";
    $("conn").textContent = "live";
    render(JSON.parse(ev.data));
  });
  source.onerror = () => {
    $("conn").className = "dead";
    $("conn").textContent = "reconnecting…";
  };
}
connect();
</script>
</body>
</html>
"""
