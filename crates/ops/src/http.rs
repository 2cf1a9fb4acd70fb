//! The HTTP ops endpoint.
//!
//! A deliberately small, hand-rolled HTTP/1.1 server over
//! `std::net::TcpListener` — the workspace is offline, so there is no
//! HTTP framework to lean on, and none is needed for four read-only
//! routes:
//!
//! | route       | body                                                |
//! |-------------|-----------------------------------------------------|
//! | `/`         | static HTML dashboard that polls `/snapshot`        |
//! | `/health`   | `ok` (liveness probe)                               |
//! | `/snapshot` | the latest published [`OpsSnapshot`] as JSON        |
//! | `/metrics`  | the telemetry registry in Prometheus text format    |
//!
//! **Determinism boundary.** This module is the wall-clock side of the
//! ops plane: the serving thread reads whatever the simulation last
//! published into the shared snapshot and never feeds anything back.
//! Socket timeouts here are real-time by nature and do not touch
//! `SimTime`. The one thread spawn is scoped to serving and carries an
//! explicit lint allowance.

use crate::OpsSnapshot;
use parking_lot::Mutex;
use sphinx_telemetry::{export::prometheus_text, Telemetry};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How long a connection may dribble its request before being dropped.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
/// Largest request head we will buffer (no route here takes a body).
const MAX_REQUEST: usize = 16 * 1024;

/// A running ops endpoint. Dropping (or calling [`OpsServer::stop`])
/// shuts the serving thread down.
pub struct OpsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving the shared snapshot and the telemetry registry.
    pub fn serve(
        addr: &str,
        shared: Arc<Mutex<OpsSnapshot>>,
        telemetry: Arc<Telemetry>,
    ) -> io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        // Serving-only thread: renders published state, never touches
        // the simulation.
        // sphinx-lint: allow(thread-spawn)
        let handle = std::thread::spawn(move || {
            serve_loop(&listener, &flag, &shared, &telemetry);
        });
        Ok(OpsServer {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serving thread and wait for it to exit.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock `accept` by connecting to ourselves; an error just
        // means the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    shared: &Mutex<OpsSnapshot>,
    telemetry: &Telemetry,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = handle_connection(stream, shared, telemetry);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Mutex<OpsSnapshot>,
    telemetry: &Telemetry,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let text = "text/plain; charset=utf-8";
    let (status, content_type, body) = match read_request_path(&mut stream) {
        Err(e) => (e.status(), text, format!("{}\n", e.status())),
        Ok(path) => match path.as_str() {
            "/" | "/index.html" => ("200 OK", "text/html; charset=utf-8", DASHBOARD.to_owned()),
            "/health" => ("200 OK", text, "ok\n".to_owned()),
            "/snapshot" => {
                let json = {
                    let snap = shared.lock();
                    serde_json::to_string(&*snap)
                };
                match json {
                    Ok(body) => ("200 OK", "application/json", body),
                    Err(e) => (
                        "500 Internal Server Error",
                        text,
                        format!("snapshot serialization failed: {e}\n"),
                    ),
                }
            }
            "/metrics" => {
                let snap = telemetry.snapshot();
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    prometheus_text(&snap),
                )
            }
            _ => ("404 Not Found", text, "not found\n".to_owned()),
        },
    };
    write_response(&mut stream, status, content_type, body.as_bytes())?;
    // Close only after the client has: closing with its unread bytes
    // still queued would reset the connection under the response.
    stream.shutdown(Shutdown::Write)?;
    io::copy(&mut stream.take(MAX_REQUEST as u64), &mut io::sink()).map(drop)
}

/// Why a request head gets no route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestError {
    /// Not a `GET`: every route is read-only.
    Method,
    /// No blank line within [`MAX_REQUEST`] bytes.
    TooLarge,
    /// Cut off (EOF, read timeout) before its blank line, or a request
    /// line that is not UTF-8 or names no path.
    Malformed,
}

impl RequestError {
    fn status(self) -> &'static str {
        match self {
            RequestError::Method => "405 Method Not Allowed",
            RequestError::TooLarge => "431 Request Header Fields Too Large",
            RequestError::Malformed => "400 Bad Request",
        }
    }
}

/// Read the request head and return the path of its request line, query
/// string stripped. Bytes after the head (a pipelined request) are left
/// unanswered.
fn read_request_path(stream: &mut impl Read) -> Result<String, RequestError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_len = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        if buf.len() > MAX_REQUEST {
            return Err(RequestError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Err(RequestError::Malformed),
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
        }
    };
    if head_len > MAX_REQUEST {
        return Err(RequestError::TooLarge);
    }
    let head = buf.get(..head_len).unwrap_or_default();
    let line = head.split(|&b| b == b'\r').next().unwrap_or_default();
    let line = std::str::from_utf8(line).map_err(|_| RequestError::Malformed)?;
    let mut parts = line.split_whitespace();
    let path = match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => path,
        (Some("GET"), None) | (None, _) => return Err(RequestError::Malformed),
        (Some(_), _) => return Err(RequestError::Method),
    };
    // Strip any query string; the routes take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    Ok(path.to_owned())
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// The static dashboard: a single page that polls `/snapshot` and
/// renders site health, scheduler health and recent alerts.
const DASHBOARD: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>SPHINX live ops</title>
<style>
  body { font-family: ui-monospace, monospace; margin: 2rem; background: #101418; color: #d8dee6; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
  table { border-collapse: collapse; margin-top: .5rem; }
  th, td { border: 1px solid #2c3440; padding: .25rem .6rem; text-align: right; }
  th { background: #1a2028; } td.name { text-align: left; }
  .bad { color: #ff6b6b; font-weight: bold; }
  .ok { color: #69d58c; }
  #meta { color: #8a93a0; margin-top: .5rem; }
</style>
</head>
<body>
<h1>SPHINX live ops</h1>
<div id="meta">connecting…</div>
<h2>Sites</h2>
<table id="sites"><thead><tr>
  <th>site</th><th>queue</th><th>stale (s)</th><th>submits</th><th>starts</th>
  <th>done</th><th>cancel</th><th>latency (s)</th><th>verdict</th>
</tr></thead><tbody></tbody></table>
<h2>Scheduler</h2>
<table id="sched"><thead><tr>
  <th>plan cycles</th><th>cycle gap (s)</th><th>WAL appends</th><th>WAL/window</th>
  <th>leases</th><th>expiries</th><th>adoptions</th>
</tr></thead><tbody></tbody></table>
<h2>Recent alerts</h2>
<table id="alerts"><thead><tr>
  <th>sim time (s)</th><th>detector</th><th>site</th><th>value</th><th>threshold</th>
</tr></thead><tbody></tbody></table>
<script>
function secs(ms) { return (ms / 1000).toFixed(1); }
function verdict(s) {
  const bad = [];
  if (s.black_hole) bad.push("black-hole");
  if (s.queue_anomaly) bad.push("queue-anomaly");
  if (s.stale) bad.push("stale");
  return bad.length ? '<span class="bad">' + bad.join(", ") + "</span>" : '<span class="ok">healthy</span>';
}
async function refresh() {
  try {
    const r = await fetch("/snapshot");
    const s = await r.json();
    document.getElementById("meta").textContent =
      "sim t=" + secs(s.now_ms) + "s · window " + secs(s.window_ms) + "s · " +
      s.ticks + " ticks · " + s.events_seen + " records · " + s.alerts_total + " alerts";
    document.querySelector("#sites tbody").innerHTML = s.sites.map(x =>
      "<tr><td class=name>" + x.site + "</td><td>" + x.queue_depth.toFixed(0) +
      "</td><td>" + secs(x.staleness_ms) + "</td><td>" + x.submits_recent +
      "</td><td>" + x.starts_recent + "</td><td>" + x.completions_recent +
      "</td><td>" + x.cancels_recent + "</td><td>" + secs(x.latency_mean_ms) +
      "</td><td>" + verdict(x) + "</td></tr>").join("");
    const h = s.scheduler;
    document.querySelector("#sched tbody").innerHTML =
      "<tr><td>" + h.plan_cycles + "</td><td>" + secs(h.last_cycle_gap_ms) +
      "</td><td>" + h.wal_appends + "</td><td>" + h.wal_appends_last_window +
      "</td><td>" + h.lease_grants + "</td><td>" + h.lease_expiries +
      "</td><td>" + h.shard_adoptions + "</td></tr>";
    document.querySelector("#alerts tbody").innerHTML = s.recent_alerts.map(a =>
      "<tr><td>" + secs(a.at) + "</td><td>" + a.detector + "</td><td>" + a.site +
      "</td><td>" + a.value.toFixed(2) + "</td><td>" + a.threshold.toFixed(2) +
      "</td></tr>").reverse().join("");
  } catch (e) {
    document.getElementById("meta").textContent = "snapshot fetch failed: " + e;
  }
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpsAlert, OpsDetector, SiteHealth};
    use sphinx_sim::SimTime;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut body = Vec::new();
        stream.read_to_end(&mut body).unwrap();
        let text = String::from_utf8(body).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    fn test_server() -> (OpsServer, Arc<Mutex<OpsSnapshot>>, Arc<Telemetry>) {
        let telemetry = Arc::new(Telemetry::new());
        let shared = Arc::new(Mutex::new(OpsSnapshot::default()));
        let server =
            OpsServer::serve("127.0.0.1:0", Arc::clone(&shared), Arc::clone(&telemetry)).unwrap();
        (server, shared, telemetry)
    }

    #[test]
    fn health_and_dashboard_respond() {
        let (server, _shared, _tel) = test_server();
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, body) = get(server.addr(), "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("SPHINX live ops"));
        let (head, _) = get(server.addr(), "/no-such-route");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn snapshot_serves_published_state() {
        let (server, shared, _tel) = test_server();
        {
            let mut snap = shared.lock();
            snap.now_ms = 4000;
            snap.sites.push(SiteHealth {
                site: 7,
                black_hole: true,
                ..SiteHealth::default()
            });
            snap.recent_alerts.push(OpsAlert {
                at: SimTime::from_secs(4),
                detector: OpsDetector::BlackHole,
                site: 7,
                value: 3.0,
                threshold: 2.0,
            });
        }
        let (head, body) = get(server.addr(), "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let parsed: OpsSnapshot = serde_json::from_str(&body).unwrap();
        assert_eq!(parsed.now_ms, 4000);
        assert_eq!(parsed.sites.len(), 1);
        assert!(parsed.sites[0].black_hole);
        assert_eq!(parsed.recent_alerts[0].detector, OpsDetector::BlackHole);
    }

    #[test]
    fn metrics_serves_prometheus_text() {
        let (server, _shared, tel) = test_server();
        tel.counter_add("ops.alerts", 3);
        let report = sphinx_telemetry::Event::SiteReport {
            site: sphinx_data::SiteId(1),
            age: sphinx_sim::Duration::from_millis(1500),
            queued: 0,
        };
        tel.record(SimTime::ZERO, report);
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("sphinx_ops_alerts 3"), "{body}");
        assert!(
            body.contains("sphinx_monitor_staleness{site=\"1\"} 1500"),
            "{body}"
        );
        sphinx_telemetry::export::validate_prometheus(&body).unwrap();
    }

    #[test]
    fn bad_requests_get_a_status_and_one_response_per_connection() {
        let (server, _shared, _tel) = test_server();
        let pad = "x".repeat(MAX_REQUEST + 1024);
        let cases: [(&str, Vec<u8>, &str); 5] = [
            ("POST", b"POST /snapshot HTTP/1.1\r\n\r\n".to_vec(), "405"),
            (
                "oversized head",
                format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into(),
                "431",
            ),
            (
                "head cut off by EOF",
                b"GET /health HTTP/1.1\r\nHost: t\r\n".to_vec(),
                "400",
            ),
            (
                "non-UTF-8 request line",
                b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(),
                "400",
            ),
            (
                "pipelined pair",
                b"GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n".to_vec(),
                "200",
            ),
        ];
        for (what, request, status) in cases {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&request).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let want = format!("HTTP/1.1 {status} ");
            assert!(response.starts_with(&want), "{what}: {response}");
            // The connection closes after the one response.
            assert_eq!(
                response.matches("HTTP/1.1 ").count(),
                1,
                "{what}: {response}"
            );
        }
    }

    #[test]
    fn stop_terminates_the_serving_thread() {
        let (mut server, _shared, _tel) = test_server();
        let addr = server.addr();
        server.stop();
        // A second stop is a no-op; the port no longer answers.
        server.stop();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may allow one last connect to a closing socket;
                // but the thread is provably joined by `stop` returning.
                true
            }
        );
    }
}
