//! Minimal HTTP/1.x transport for the control API over `std::net`.
//!
//! Enough of HTTP for programmatic clients: request line, headers,
//! `Content-Length` bodies, JSON in/out, connection-close semantics.
//!
//! The parser is hardened against misbehaving clients: request line and
//! headers are read through hard byte/count ceilings (431), bodies are
//! capped at [`MAX_BODY_BYTES`] (413), a malformed `Content-Length` is a
//! 400, and a truncated or stalled body is a 400/408 instead of a hung
//! worker thread or an abandoned connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bp_util::json::Json;

use crate::router::{ApiServer, Method, Request};

/// A running HTTP listener; shuts down when the guard is dropped.
pub struct HttpServerGuard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServerGuard {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl ApiServer {
    /// Serve the API over HTTP on `addr` (e.g. "127.0.0.1:0").
    pub fn serve_http(self: &Arc<Self>, addr: &str) -> std::io::Result<HttpServerGuard> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let server = self.clone();
        let handle = std::thread::Builder::new()
            .name("bp-api-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let server = server.clone();
                    std::thread::spawn(move || {
                        let _ = handle_connection(stream, &server);
                    });
                }
            })?;
        Ok(HttpServerGuard { addr: local, stop, handle: Some(handle) })
    }
}

/// Ceiling on one header or request line, bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Ceiling on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Ceiling on a request body, bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Read one CRLF/LF-terminated line without ever buffering more than
/// `max` bytes. `Ok(None)` means the line exceeded the ceiling.
fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            break; // EOF mid-line: serve what we have
        }
        let take = available.len().min(max + 1 - buf.len());
        match available[..take].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                buf.extend_from_slice(&available[..take]);
                reader.consume(take);
                if buf.len() > max {
                    return Ok(None);
                }
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

fn handle_connection(stream: TcpStream, server: &ApiServer) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);

    // Request line, bounded.
    let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES)? {
        Some(l) => l,
        None => {
            return write_json(stream, 431, &Json::obj().set("error", "request line too long"))
        }
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return write_json(stream, 400, &Json::obj().set("error", "bad request line")),
    };

    // Headers: bounded per line and in count; a malformed Content-Length is
    // rejected rather than silently treated as "no body".
    let mut content_length = 0usize;
    let mut header_count = 0usize;
    loop {
        if header_count >= MAX_HEADERS {
            return write_json(stream, 431, &Json::obj().set("error", "too many headers"));
        }
        let header = match read_line_bounded(&mut reader, MAX_LINE_BYTES)? {
            Some(h) => h,
            None => {
                return write_json(stream, 431, &Json::obj().set("error", "header too long"))
            }
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return write_json(
                            stream,
                            400,
                            &Json::obj().set("error", "bad content-length"),
                        )
                    }
                };
            }
        }
    }

    // Body: size-capped, and a short or stalled read answers instead of
    // hanging the connection or dying silently.
    let body = if content_length > 0 {
        if content_length > MAX_BODY_BYTES {
            return write_json(stream, 413, &Json::obj().set("error", "body too large"));
        }
        let mut buf = vec![0u8; content_length];
        if let Err(e) = reader.read_exact(&mut buf) {
            let (status, msg) = match e.kind() {
                std::io::ErrorKind::UnexpectedEof => (400, "truncated body"),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    (408, "body read timed out")
                }
                _ => return Err(e),
            };
            return write_json(stream, status, &Json::obj().set("error", msg));
        }
        match std::str::from_utf8(&buf).ok().and_then(|s| Json::parse(s).ok()) {
            Some(j) => Some(j),
            None => {
                return write_json(stream, 400, &Json::obj().set("error", "invalid JSON body"))
            }
        }
    } else {
        None
    };

    let Some(method) = Method::parse(&method) else {
        return write_json(stream, 405, &Json::obj().set("error", "unsupported method"));
    };
    let response = server.handle(&Request { method, path, body });
    match &response.raw {
        Some((content_type, text)) => write_response(stream, response.status, content_type, text),
        None => write_json(stream, response.status, &response.body),
    }
}

fn write_json(stream: TcpStream, status: u16, body: &Json) -> std::io::Result<()> {
    write_response(stream, status, "application/json", &body.to_string())
}

fn write_response(
    mut stream: TcpStream,
    status: u16,
    content_type: &str,
    text: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        text.len(),
        text
    )?;
    stream.flush()
}

/// Per-request I/O ceiling for the blocking HTTP client: connect, every
/// read, and every write each give up after this long, so a dead or
/// wedged peer costs a bounded wait instead of a hung thread. Heartbeat
/// and fan-out paths in the cluster layer pass tighter ceilings via
/// [`http_request_text_timeout`].
pub const CLIENT_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// A tiny blocking HTTP client for tests and examples.
pub fn http_request(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> std::io::Result<(u16, Json)> {
    let (status, text) = http_request_text(addr, method, path, body)?;
    let json = Json::parse(&text).unwrap_or(Json::Null);
    Ok((status, json))
}

/// Like [`http_request`] but with an explicit per-request timeout.
pub fn http_request_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: std::time::Duration,
) -> std::io::Result<(u16, Json)> {
    let (status, text) = http_request_text_timeout(addr, method, path, body, timeout)?;
    let json = Json::parse(&text).unwrap_or(Json::Null);
    Ok((status, json))
}

/// Like [`http_request`] but returns the raw response body — what text
/// endpoints (`/metrics`, `/trace/spans`) need.
pub fn http_request_text(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> std::io::Result<(u16, String)> {
    http_request_text_timeout(addr, method, path, body, CLIENT_IO_TIMEOUT)
}

/// The raw-body client with an explicit timeout applied to connect, reads
/// and writes independently.
pub fn http_request_text_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: std::time::Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body_text = body.map(|b| b.to_string()).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body_text.len(),
        body_text
    )?;
    stream.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let text = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{ControlState, Controller, Mixture, Rate, RequestQueue, StatsCollector, TransactionType};
    use bp_storage::{Database, Personality};
    use bp_util::clock::sim_clock;

    fn server() -> Arc<ApiServer> {
        let (_, clock) = sim_clock();
        let types = vec![TransactionType::new("T", 100.0, true)];
        let mixture = Mixture::default_of(&types);
        let state = ControlState::new(Rate::Limited(50.0), mixture, 1e4);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock, &["T"]));
        let db = Database::new(Personality::test());
        let spans = Arc::new(bp_obs::SpanRecorder::new(bp_obs::ObsConfig::default()));
        let c = Controller::new(state, queue, stats, spans, db, types, "w");
        let s = Arc::new(ApiServer::new());
        s.register("w", c);
        s
    }

    #[test]
    fn http_roundtrip() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let (status, body) = http_request(guard.addr(), "GET", "/workloads", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, Json::Arr(vec![Json::Str("w".into())]));

        let (status, body) = http_request(
            guard.addr(),
            "POST",
            "/workloads/w/rate",
            Some(&Json::obj().set("tps", 123.0)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("rate").unwrap().as_f64(), Some(123.0));
    }

    #[test]
    fn http_errors() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let (status, _) = http_request(guard.addr(), "GET", "/ghost", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_request(guard.addr(), "PATCH", "/workloads", None).unwrap();
        assert_eq!(status, 405);
    }

    #[test]
    fn http_metrics_plaintext() {
        let (_, clock) = sim_clock();
        let types = vec![TransactionType::new("T", 100.0, true)];
        let mixture = Mixture::default_of(&types);
        let state = ControlState::new(Rate::Limited(50.0), mixture, 1e4);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock, &["T"]));
        let db = Database::new(Personality::test());
        let spans = Arc::new(bp_obs::SpanRecorder::new(bp_obs::ObsConfig::default()));
        let c = Controller::new(state, queue, stats, spans, db, types, "w");
        let reg = Arc::new(bp_obs::MetricsRegistry::new());
        let s = Arc::new(ApiServer::new().with_registry(reg));
        s.register("w", c);

        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let (status, text) = http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("# TYPE bp_server_commits_total counter"), "{text}");
    }

    #[test]
    fn http_health_and_readiness() {
        // An empty server is alive but not ready.
        let empty = Arc::new(ApiServer::new());
        let guard = empty.serve_http("127.0.0.1:0").unwrap();
        let (status, body) = http_request(guard.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok").unwrap().as_bool(), Some(true));
        let (status, body) = http_request(guard.addr(), "GET", "/readyz", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert_eq!(body.get("ready").unwrap().as_bool(), Some(false));

        // With a workload registered, readiness flips to 200.
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let (status, body) = http_request(guard.addr(), "GET", "/readyz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("ready").unwrap().as_bool(), Some(true));
        assert_eq!(body.get("workloads").unwrap().as_u64(), Some(1));
    }

    /// Fire raw bytes at a live socket and return the response status line's
    /// status code (0 if the server dropped the connection without replying).
    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        // The server may answer-and-close before the full request is
        // written (early 431/413), breaking the write mid-stream.
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        let _ = BufReader::new(stream).read_to_string(&mut response);
        response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn truncated_body_gets_400_not_hang() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        // Promise 100 bytes, send 8, close: must answer 400, not hang
        // until the read timeout or die without a response.
        let status = raw_request(
            guard.addr(),
            b"POST /workloads/w/rate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tps\":",
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn oversized_body_gets_413() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        // The server must reject on the declared length alone — no need to
        // stream 2 MiB at it.
        let status = raw_request(
            guard.addr(),
            format!("POST /workloads/w/rate HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20)
                .as_bytes(),
        );
        assert_eq!(status, 413);
    }

    #[test]
    fn bad_content_length_gets_400() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let status = raw_request(
            guard.addr(),
            b"POST /workloads/w/rate HTTP/1.1\r\nContent-Length: banana\r\n\r\n{}",
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn oversized_request_line_gets_431() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 * 1024));
        assert_eq!(raw_request(guard.addr(), long_path.as_bytes()), 431);
    }

    #[test]
    fn oversized_header_gets_431() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let req = format!("GET /status HTTP/1.1\r\nX-Junk: {}\r\n\r\n", "y".repeat(64 * 1024));
        assert_eq!(raw_request(guard.addr(), req.as_bytes()), 431);
    }

    #[test]
    fn too_many_headers_gets_431() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let mut req = String::from("GET /status HTTP/1.1\r\n");
        for i in 0..100 {
            req.push_str(&format!("X-H{i}: v\r\n"));
        }
        req.push_str("\r\n");
        assert_eq!(raw_request(guard.addr(), req.as_bytes()), 431);
    }

    #[test]
    fn garbage_request_line_gets_400() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        assert_eq!(raw_request(guard.addr(), b"\x00\x01\x02\r\n\r\n"), 400);
        assert_eq!(raw_request(guard.addr(), b"ONLYONETOKEN\r\n\r\n"), 400);
    }

    #[test]
    fn client_times_out_on_dead_peer() {
        // A listener that accepts and then never answers: the client must
        // give up after its read timeout, not block forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = std::thread::spawn(move || {
            let mut held = Vec::new();
            for s in listener.incoming().flatten() {
                held.push(s); // hold the socket open, say nothing
            }
        });
        let t0 = std::time::Instant::now();
        let err = http_request_text_timeout(
            addr,
            "GET",
            "/status",
            None,
            std::time::Duration::from_millis(150),
        );
        assert!(err.is_err(), "dead peer must not look like a response");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "timed out in {:?}, not bounded by the 150ms ceiling",
            t0.elapsed()
        );
    }

    #[test]
    fn route_extension_served_over_http() {
        use crate::router::RouteExtension;
        struct Ext;
        impl RouteExtension for Ext {
            fn handle(
                &self,
                _: &ApiServer,
                _: &Request,
                path: &[&str],
                _: &str,
            ) -> Option<crate::router::Response> {
                (path == ["cluster", "ping"])
                    .then(|| crate::router::Response::ok(Json::obj().set("pong", true)))
            }
        }
        let s = server();
        s.mount(Arc::new(Ext));
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let (status, body) = http_request(guard.addr(), "GET", "/cluster/ping", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("pong").unwrap().as_bool(), Some(true));
        // Built-in routes still win, and unclaimed paths still 404.
        let (status, _) = http_request(guard.addr(), "GET", "/workloads", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_request(guard.addr(), "GET", "/cluster/ghost", None).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn concurrent_clients() {
        let s = server();
        let guard = s.serve_http("127.0.0.1:0").unwrap();
        let addr = guard.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let (status, _) = http_request(addr, "GET", "/status", None).unwrap();
                    assert_eq!(status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
