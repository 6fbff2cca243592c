//! A std-only HTTP listener exposing live telemetry — and, since the
//! `parma serve` daemon, hosting arbitrary request handlers on the same
//! listener.
//!
//! Deliberately minimal: one background accept thread, one short-lived
//! thread per connection, one request per connection, `Connection:
//! close`. That is all a pull scraper (Prometheus, `curl`, the CI smoke
//! job) or a polling job client needs, and it keeps the workspace free of
//! async runtimes and HTTP crates. Built-in endpoints:
//!
//! * `GET /metrics` — Prometheus text format 0.0.4 ([`crate::expo`]),
//! * `GET /snapshot` — full JSON snapshot including gauges + histograms,
//! * `GET /events` — the flight recorder as `parma-events/v1` JSONL.
//!
//! [`MetricsServer::start_with_handler`] mounts a custom [`Handler`] *in
//! front of* the built-ins: the handler sees every request first and
//! returns `None` to fall through, which is how `parma serve` exposes its
//! job API and the telemetry endpoints on a single listener/registry.
//!
//! Request bodies are read per `Content-Length` under a hard cap; a body
//! larger than [`MAX_BODY`] is rejected with `413`, a truncated or
//! malformed request with a typed `400` (`parma-serve-error/v1`), never a
//! panic. Each request renders a fresh [`crate::snapshot`], so a mid-run
//! scrape sees exactly what the trace writer would. Shutdown is
//! cooperative: a stop flag plus a self-connect to unblock `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One request, from accept to the response being ready to write (ms).
static REQUEST_MS: crate::hist::Hist = crate::hist::Hist::new("parma.http.request_ms");

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 8 * 1024;

/// Largest accepted request body. An `n = 100` session dataset is well
/// under 1 MiB of text, so 8 MiB leaves generous headroom while bounding
/// per-connection memory.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Schema tag of the typed JSON error bodies this listener emits.
pub const ERROR_SCHEMA: &str = "parma-serve-error/v1";

/// One parsed HTTP request, as seen by a [`Handler`].
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the target, without the query string.
    pub path: String,
    /// The raw query string (empty when the target has none).
    pub query: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first `key=value` query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The response a [`Handler`] produces.
pub struct Response {
    /// HTTP status code (200, 202, 400, 429, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
    /// Optional `Retry-After` header (seconds) — backpressure responses
    /// (429/503) carry it so clients know when to come back.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A typed error response in the stable [`ERROR_SCHEMA`] shape:
    /// `{"schema":…,"kind":…,"detail":…}`.
    pub fn error(status: u16, kind: &str, detail: &str) -> Response {
        let mut out = String::with_capacity(64);
        let mut obj = crate::json::Object::begin(&mut out);
        obj.field_str("schema", ERROR_SCHEMA);
        obj.field_str("kind", kind);
        obj.field_str("detail", detail);
        obj.end();
        Response::json(status, out)
    }

    /// Stamps a `Retry-After: secs` header onto the response.
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }
}

/// A request handler mounted in front of the built-in telemetry routes.
/// Returning `None` falls through to `/metrics`, `/snapshot`, `/events`.
pub type Handler = dyn Fn(&Request) -> Option<Response> + Send + Sync;

/// The standard reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Handle to a running listener. Dropping it shuts the listener down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// starts serving the built-in telemetry endpoints. `meta` is stamped
    /// onto `/snapshot` documents.
    pub fn start(addr: &str, meta: Vec<(String, String)>) -> Result<MetricsServer, String> {
        Self::start_impl(addr, meta, None)
    }

    /// Like [`Self::start`], but routes every request through `handler`
    /// first; requests the handler declines (returns `None` for) fall
    /// through to the built-in telemetry endpoints.
    pub fn start_with_handler(
        addr: &str,
        meta: Vec<(String, String)>,
        handler: Arc<Handler>,
    ) -> Result<MetricsServer, String> {
        Self::start_impl(addr, meta, Some(handler))
    }

    fn start_impl(
        addr: &str,
        meta: Vec<(String, String)>,
        handler: Option<Arc<Handler>>,
    ) -> Result<MetricsServer, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("serve: no local addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let meta = Arc::new(meta);
        let handle = std::thread::Builder::new()
            .name("parma-metrics".to_string())
            .spawn(move || serve_loop(listener, thread_stop, meta, handler))
            .map_err(|e| format!("serve: cannot spawn listener thread: {e}"))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its accept thread. Idempotent.
    /// Connections already being served finish on their own threads.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop; any error just means it already woke.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    meta: Arc<Vec<(String, String)>>,
    handler: Option<Arc<Handler>>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let meta = Arc::clone(&meta);
        let handler = handler.clone();
        // One short-lived thread per connection so a slow upload never
        // blocks a concurrent scrape. If the spawn itself fails the
        // connection is simply dropped and the client retries.
        let _ = std::thread::Builder::new()
            .name("parma-http".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &meta, handler.as_deref());
            });
    }
}

fn handle_connection(
    mut stream: TcpStream,
    meta: &[(String, String)],
    handler: Option<&Handler>,
) -> std::io::Result<()> {
    let timer = REQUEST_MS.time();
    stream.set_read_timeout(Some(Duration::from_millis(5000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(5000)))?;
    let response = match read_request(&mut stream) {
        Ok(request) => handler
            .and_then(|h| h(&request))
            .unwrap_or_else(|| builtin(&request, meta)),
        Err(error) => error,
    };
    crate::counter_add("parma.http.requests", 1);
    if response.status >= 400 {
        crate::counter_add("parma.http.errors", 1);
    }
    drop(timer);
    write_response(&mut stream, &response)
}

/// Reads and parses one request. Every malformation maps to a typed
/// error response — this function cannot panic on hostile input.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(Response::error(
                400,
                "malformed_head",
                "request head exceeds 8 KiB",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    "malformed_head",
                    "connection closed before the end of the request head",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {
                return Err(Response::error(
                    400,
                    "malformed_head",
                    "timed out reading the request head",
                ))
            }
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return Err(Response::error(
            400,
            "malformed_head",
            "unparseable request line",
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                Response::error(
                    400,
                    "bad_content_length",
                    &format!("unparseable Content-Length {:?}", value.trim()),
                )
            })?;
        }
    }
    if content_length > MAX_BODY {
        return Err(Response::error(
            413,
            "payload_too_large",
            &format!("body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"),
        )
        .with_retry_after(0));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    "truncated_body",
                    &format!("body ended after {} of {content_length} bytes", body.len()),
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => {
                return Err(Response::error(
                    400,
                    "truncated_body",
                    &format!(
                        "timed out after {} of {content_length} body bytes",
                        body.len()
                    ),
                ))
            }
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// The built-in telemetry routes (reached when no handler claimed the
/// request).
fn builtin(request: &Request, meta: &[(String, String)]) -> Response {
    if request.method != "GET" {
        return Response::error(
            405,
            "method_not_allowed",
            "only GET is supported on telemetry endpoints",
        );
    }
    match request.path.as_str() {
        "/metrics" => Response {
            status: 200,
            content_type: crate::expo::CONTENT_TYPE,
            body: crate::expo::prometheus(&crate::snapshot()),
            retry_after: None,
        },
        "/snapshot" => {
            let meta_refs: Vec<(&str, &str)> =
                meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            Response::json(200, crate::snapshot().to_json_full(&meta_refs))
        }
        "/events" => Response {
            status: 200,
            content_type: "application/jsonl",
            body: crate::events::events_to_jsonl(&crate::events::events_snapshot()),
            retry_after: None,
        },
        _ => Response::error(404, "not_found", "try /metrics, /snapshot or /events"),
    }
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if let Some(secs) = response.retry_after {
        header.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    header.push_str("Connection: close\r\n\r\n");
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// One parsed HTTP reply, as returned by [`http_request`].
pub struct HttpReply {
    /// The numeric status code.
    pub status: u16,
    /// The full response head (status line + headers).
    pub head: String,
    /// The response body.
    pub body: String,
}

impl HttpReply {
    /// A response header's value, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then_some(v.trim())
        })
    }
}

/// Performs one blocking request against a running server — shared by
/// tests, the CLI's smoke helpers and the curl-less quickstart.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<HttpReply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: parma\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response.clone(), String::new()));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line from {addr}: {head:?}"))?;
    Ok(HttpReply { status, head, body })
}

/// Performs a blocking GET and returns `(status_line, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(String, String), String> {
    let reply = http_request(addr, "GET", path, b"")?;
    let status_line = reply.head.lines().next().unwrap_or("").to_string();
    Ok((status_line, reply.body))
}

/// Performs a blocking POST with `body` and returns the parsed reply.
pub fn http_post(addr: SocketAddr, path: &str, body: &[u8]) -> Result<HttpReply, String> {
    http_request(addr, "POST", path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_snapshot_and_events_then_shuts_down() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        crate::counter_add("serve.test.solves", 3);
        crate::hist::histogram("serve.test.ms").record(1.5);
        crate::hist::histogram("serve.test.ms").record(3.0);
        crate::events::emit_for(crate::events::EventKind::SolveOk, 0, 0, 1e-9);

        let mut server = MetricsServer::start(
            "127.0.0.1:0",
            vec![("schema".into(), "parma-snapshot/v1".into())],
        )
        .expect("bind an ephemeral port");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("serve_test_solves_total 3"), "{body}");
        assert!(body.contains("serve_test_ms_p50"), "{body}");
        assert!(crate::expo::looks_like_valid_exposition(&body), "{body}");

        let (status, body) = http_get(addr, "/snapshot").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(
            body.starts_with("{\"schema\":\"parma-snapshot/v1\","),
            "{body}"
        );
        assert!(body.contains("\"serve.test.ms\":{\"count\":2,"), "{body}");

        let (status, body) = http_get(addr, "/events").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"kind\":\"solve_ok\""), "{body}");

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"), "{status}");

        server.shutdown();
        crate::set_live(false);
        crate::reset();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "listener must stop accepting after shutdown"
        );
    }

    #[test]
    fn custom_handler_sees_posts_and_falls_through_to_builtins() {
        let _g = crate::test_guard();
        crate::set_live(true);
        crate::reset();
        crate::counter_add("serve.test.fallthrough", 1);
        let handler: Arc<Handler> = Arc::new(|req: &Request| match req.path.as_str() {
            "/echo" => Some(Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"tag\":\"{}\",\"bytes\":{}}}",
                    req.method,
                    req.query_param("tag").unwrap_or("-"),
                    req.body.len()
                ),
            )),
            "/busy" => {
                Some(Response::error(429, "queue_full", "come back later").with_retry_after(7))
            }
            _ => None,
        });
        let mut server =
            MetricsServer::start_with_handler("127.0.0.1:0", Vec::new(), handler).unwrap();
        let addr = server.addr();

        let reply = http_post(addr, "/echo?tag=x", b"hello").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.body,
            "{\"method\":\"POST\",\"tag\":\"x\",\"bytes\":5}"
        );

        let reply = http_request(addr, "GET", "/busy", b"").unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.header("Retry-After"), Some("7"));
        assert_eq!(reply.header("retry-after"), Some("7"));
        assert!(
            reply.body.contains("\"kind\":\"queue_full\""),
            "{}",
            reply.body
        );

        // Unclaimed paths still reach the telemetry built-ins.
        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("serve_test_fallthrough_total 1"), "{body}");

        server.shutdown();
        crate::set_live(false);
        crate::reset();
    }

    #[test]
    fn post_without_handler_is_rejected_with_a_typed_405() {
        let _g = crate::test_guard();
        let mut server = MetricsServer::start("127.0.0.1:0", Vec::new()).unwrap();
        let reply = http_post(server.addr(), "/metrics", b"x").unwrap();
        assert_eq!(reply.status, 405);
        assert!(
            reply.body.contains("\"kind\":\"method_not_allowed\""),
            "{}",
            reply.body
        );
        server.shutdown();
    }

    #[test]
    fn oversized_and_truncated_bodies_get_typed_errors() {
        let _g = crate::test_guard();
        let mut server = MetricsServer::start("127.0.0.1:0", Vec::new()).unwrap();
        let addr = server.addr();

        // Content-Length over the cap: rejected before reading the body.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
        assert!(text.contains("\"kind\":\"payload_too_large\""), "{text}");

        // A body cut short of its declared length: typed 400 once the
        // sender half-closes.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly-part")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("\"kind\":\"truncated_body\""), "{text}");
        assert!(text.contains("9 of 50"), "{text}");

        // An unparseable Content-Length.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("\"kind\":\"bad_content_length\""), "{text}");

        // Garbage that never forms a request head.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"complete nonsense").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("\"kind\":\"malformed_head\""), "{text}");

        // The listener survives all of the above.
        let (status, _) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        server.shutdown();
    }
}
