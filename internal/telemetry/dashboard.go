package telemetry

// The live dashboard: one self-contained HTML page (no external assets, no
// JS dependencies — it must work from an air-gapped lab box) fed by a
// server-sent-events stream of the tracer's counter snapshots. SSE over
// chunked HTTP keeps the server side trivial (no websocket framing) and
// curl-friendly:
//
//	curl -N http://localhost:6060/debug/scamv/events
//
// streams one JSON snapshot per tick.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// sseMinInterval floors the client-requested tick to keep a hostile or
// buggy ?interval_ms from turning the stream into a busy loop.
const sseMinInterval = 20 * time.Millisecond

// sseHandler streams counter snapshots as server-sent events. One snapshot
// is sent immediately, then one per interval (default 1s, client-tunable
// via ?interval_ms=) until the client disconnects.
func sseHandler(t *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		interval := time.Second
		if ms, err := strconv.Atoi(r.FormValue("interval_ms")); err == nil && ms > 0 {
			interval = time.Duration(ms) * time.Millisecond
			if interval < sseMinInterval {
				interval = sseMinInterval
			}
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		h.Set("X-Accel-Buffering", "no") // defeat proxy buffering

		emit := func() bool {
			b, err := json.Marshal(wireSnapshot(t))
			if err != nil {
				return false
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return false
			}
			if _, err := w.Write(b); err != nil {
				return false
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return false
			}
			fl.Flush()
			return true
		}
		if !emit() {
			return
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-tick.C:
				if !emit() {
					return
				}
			}
		}
	}
}

// flightHandler reports the flight recorder's status (GET) and forces a
// capture (POST, optional ?reason=), returning the bundle path — the manual
// seam the obs-smoke exercises and an operator's "grab me evidence now".
func flightHandler(t *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fr := t.FlightRecorder()
		if fr == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if r.Method == http.MethodPost {
			reason := r.FormValue("reason")
			if reason == "" {
				reason = "manual"
			}
			dir, err := fr.ForceCapture(reason)
			out := struct {
				Bundle string `json:"bundle,omitempty"`
				Error  string `json:"error,omitempty"`
			}{Bundle: dir}
			if err != nil {
				out.Error = err.Error()
				w.WriteHeader(http.StatusInternalServerError)
			}
			_ = enc.Encode(out)
			return
		}
		_ = enc.Encode(fr.Status())
	}
}

// liveHandler serves the dashboard page.
func liveHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(liveHTML))
	}
}

// liveHTML is the whole dashboard. Everything inline; the only network
// dependency is the /debug/scamv/events stream it subscribes to.
const liveHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>scamv live</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         margin: 1.5rem auto; max-width: 72rem; padding: 0 1rem;
         background: #101418; color: #d8dee4; }
  h1 { font-size: 1.1rem; } h2 { font-size: .9rem; margin: 1.4em 0 .4em;
       color: #8b949e; text-transform: uppercase; letter-spacing: .08em; }
  #status { color: #8b949e; }
  .tiles { display: flex; flex-wrap: wrap; gap: .6rem; }
  .tile { background: #161b22; border: 1px solid #30363d; border-radius: 6px;
          padding: .45rem .8rem; min-width: 7.5rem; }
  .tile b { display: block; font-size: 1.25rem; font-weight: 600; }
  .tile span { color: #8b949e; font-size: .75rem; }
  table { border-collapse: collapse; }
  th, td { text-align: left; padding: .15rem .8rem .15rem 0; }
  th { color: #8b949e; font-weight: 500; }
  .bar { display: inline-flex; width: 16rem; height: .8rem; background: #21262d;
         border-radius: 3px; overflow: hidden; vertical-align: middle; }
  .bar i { display: block; height: 100%; }
  .busy { background: #3fb950; } .wait { background: #d29922; }
  .stall { background: #f85149; }
  .legend i { display: inline-block; width: .7rem; height: .7rem;
              border-radius: 2px; vertical-align: middle; margin: 0 .25rem 0 .8rem; }
  .muted { color: #8b949e; }
</style>
</head>
<body>
<h1>scamv campaign observatory <span id="status" class="muted">connecting…</span></h1>
<div class="tiles" id="tiles"></div>

<h2>pipeline <span class="legend muted"><i class="busy"></i>busy <i class="wait"></i>wait (starved) <i class="stall"></i>stall (backpressure)</span></h2>
<table id="stages"><tbody></tbody></table>

<h2>solver</h2>
<div class="tiles" id="solver"></div>

<h2>platform matrix</h2>
<div id="matrix" class="muted">single-platform campaign</div>

<h2>flight recorder</h2>
<div id="flight" class="muted">not attached</div>

<script>
"use strict";
const $ = id => document.getElementById(id);
const fmtUS = us => us < 1000 ? us + "µs"
  : us < 1e6 ? (us / 1000).toFixed(1) + "ms" : (us / 1e6).toFixed(2) + "s";
const tile = (label, val) => '<div class="tile"><b>' + val + '</b><span>' + label + '</span></div>';

function render(c) {
  $("status").textContent = "live · elapsed " + fmtUS(c.elapsed_us);
  $("tiles").innerHTML =
    tile("programs", c.programs + " / " + c.total_programs) +
    tile("experiments", c.experiments) +
    tile("counterexamples", c.counterexamples) +
    tile("inconclusive", c.inconclusive) +
    (c.retries ? tile("retries", c.retries) : "") +
    (c.skips ? tile("skips", c.skips) : "") +
    (c.breaker_trips ? tile("breaker trips", c.breaker_trips) : "");

  // Per-stage backpressure bars from the live pipeline (busy/wait/stall
  // shares); span-histogram fallback shows busy only.
  const rows = [];
  const pipe = c.pipeline || [];
  if (pipe.length) {
    for (const s of pipe) {
      const total = s.busy_us + s.wait_us + s.stall_us || 1;
      const seg = (cls, us) =>
        '<i class="' + cls + '" style="width:' + (100 * us / total) + '%"></i>';
      rows.push("<tr><td>" + s.name + "</td><td>" + s.in + "→" + s.out +
        '</td><td><span class="bar">' + seg("busy", s.busy_us) +
        seg("wait", s.wait_us) + seg("stall", s.stall_us) +
        '</span></td><td class="muted">busy ' + fmtUS(s.busy_us) +
        " · wait " + fmtUS(s.wait_us) + " · stall " + fmtUS(s.stall_us) +
        " · ×" + s.workers + "</td></tr>");
    }
  } else {
    for (const s of c.stages || []) {
      rows.push("<tr><td>" + s.name + "</td><td>" + s.count +
        '</td><td><span class="bar"><i class="busy" style="width:100%"></i></span></td>' +
        '<td class="muted">busy ' + fmtUS(s.busy_us) + " · p95 " + fmtUS(s.p95_us) + "</td></tr>");
    }
  }
  $("stages").tBodies[0].innerHTML = rows.join("") ||
    '<tr><td class="muted">no pipeline activity yet</td></tr>';

  $("solver").innerHTML =
    tile("queries", c.queries) +
    tile("query p50 / p99", fmtUS(c.query_p50_us) + " / " + fmtUS(c.query_p99_us)) +
    tile("conflicts", c.conflicts) +
    tile("propagations", c.propagations) +
    tile("blast hit/miss", c.blast_hits + "/" + c.blast_misses);

  const plats = c.platforms || [];
  if (plats.length) {
    $("matrix").innerHTML = "<table><tr><th>platform</th><th>exps</th>" +
      "<th>cex</th><th>inconcl</th><th>verdict</th></tr>" +
      plats.map(p => "<tr><td>" + p.name + "</td><td>" + p.experiments +
        "</td><td>" + p.counterexamples + "</td><td>" + p.inconclusive +
        "</td><td>" + (p.experiments === 0 ? "no-data"
          : p.counterexamples > 0 ? "unsound" : "sound") + "</td></tr>").join("") +
      "</table>";
  }

  if (c.flight) {
    const f = c.flight;
    $("flight").innerHTML = "ring " + f.events + " events (" + f.dropped +
      " overwritten of " + f.ring_size + " slots) · " + f.captures +
      " captures · max query " + fmtUS(f.max_query_us) +
      " · max stall " + fmtUS(f.max_stall_us) +
      (f.last_reason ? "<br>last: " + f.last_reason +
        (f.last_bundle ? ' <span class="muted">' + f.last_bundle + "</span>" : "") : "");
  }
}

const es = new EventSource("/debug/scamv/events");
es.onmessage = e => render(JSON.parse(e.data));
es.onerror = () => { $("status").textContent = "disconnected — retrying…"; };
</script>
</body>
</html>
`
