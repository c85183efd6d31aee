//! A small, strict HTTP/1.1 subset over generic `Read`/`Write` streams.
//!
//! The server speaks one-request-per-connection (`Connection: close`),
//! which keeps worker accounting exact: one connection = one request =
//! one worker slot. Parsing is written against [`std::io::Read`] rather
//! than sockets so the protocol logic is unit-testable in memory (and
//! under Miri, where sockets don't exist).

use std::io::{Read, Write};

/// Hard caps on request size; oversize input is a typed 413, not an
/// allocation.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for the request line plus all headers.
    pub max_head_bytes: usize,
    /// Maximum bytes for the body (`Content-Length` above this is
    /// rejected before reading).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A parsed request: method, percent-decoded path, query pairs, headers
/// (names lowercased), body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter named `name`, if any.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every query parameter named `name`, in request order (the batched
    /// `/v1/report` form repeats `key=`).
    #[must_use]
    pub fn query_params(&self, name: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a full request.
    Closed,
    /// A socket read timed out (the per-request deadline machinery maps
    /// this to a typed 504).
    TimedOut,
    /// The head or body exceeded [`Limits`].
    TooLarge,
    /// The bytes were not valid HTTP.
    Malformed(String),
    /// Any other I/O failure.
    Io(std::io::Error),
}

/// Reads and parses one request from `stream`.
///
/// # Errors
/// A [`ReadError`] classifying the failure; `TimedOut` is split out so
/// deadline violations map to a typed 504 rather than a generic 400.
pub fn read_request(stream: &mut impl Read, limits: &Limits) -> Result<Request, ReadError> {
    let head = read_head(stream, limits)?;
    let text = String::from_utf8(head).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| malformed("missing target"))?;
    match parts.next() {
        Some("HTTP/1.1" | "HTTP/1.0") => {}
        _ => return Err(malformed("missing or unsupported HTTP version")),
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or_else(|| malformed("bad percent-encoding in path"))?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or_else(|| malformed("bad percent-encoding in query"))?;
            let v = percent_decode(v).ok_or_else(|| malformed("bad percent-encoding in query"))?;
            query.push((k, v));
        }
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header line without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| malformed("unparseable Content-Length"))?
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    read_exact_classified(stream, &mut body)?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// A response ready to serialize: status, headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A binary response (`application/octet-stream`) — the slim
    /// query-view envelope of `/v1/view`.
    #[must_use]
    pub fn octets(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: "application/octet-stream",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A typed JSON error body: `{"error": code, "detail": detail}`.
    #[must_use]
    pub fn error(status: u16, code: &str, detail: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":{},\"detail\":{}}}",
                crate::json::escape(code),
                crate::json::escape(detail)
            ),
        )
    }

    /// Adds a `Retry-After: seconds` header (load-shed and drain
    /// responses carry one so well-behaved clients back off).
    #[must_use]
    pub fn retry_after(mut self, seconds: u64) -> Self {
        self.extra_headers
            .push(("Retry-After", seconds.to_string()));
        self
    }

    /// Adds an arbitrary extra header (e.g. `traceparent`).
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serializes the response with `Content-Length` and
    /// `Connection: close`.
    ///
    /// # Errors
    /// Propagates stream write failures (a vanished client is normal
    /// under shed/deadline churn; callers log and move on).
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.extra_headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn malformed(msg: &str) -> ReadError {
    ReadError::Malformed(msg.to_string())
}

/// Classifies an I/O error: timeouts (both the Unix `WouldBlock` and
/// Windows `TimedOut` spellings) are deadline events, everything else is
/// transport failure.
fn classify(e: std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => ReadError::Closed,
        _ => ReadError::Io(e),
    }
}

fn read_exact_classified(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), ReadError> {
    stream.read_exact(buf).map_err(classify)
}

/// Reads bytes until the `\r\n\r\n` head terminator, capped by
/// `limits.max_head_bytes`.
fn read_head(stream: &mut impl Read, limits: &Limits) -> Result<Vec<u8>, ReadError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte).map_err(classify)?;
        if n == 0 {
            return Err(if head.is_empty() {
                ReadError::Closed
            } else {
                malformed("connection closed mid-head")
            });
        }
        head.push(byte[0]);
        if head.len() > limits.max_head_bytes {
            return Err(ReadError::TooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(head);
        }
    }
}

/// Decodes `%XX` sequences and `+` (as space). Returns `None` on a
/// malformed or non-UTF-8 encoding.
#[must_use]
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex(*bytes.get(i + 1)?)?;
                let lo = hex(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(
            &mut Cursor::new(raw.as_bytes().to_vec()),
            &Limits::default(),
        )
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /v1/report?key=%5B1%2C%22a+b%22%5D&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/report");
        assert_eq!(req.query_param("key"), Some("[1,\"a b\"]"));
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /v1/ingest HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"rows\":[[]]}",
        );
        // 12 bytes of a 13-byte body: short read is a typed error.
        assert!(matches!(req, Ok(ref r) if r.body.len() == 12) || req.is_err());
        let req =
            parse("POST /v1/ingest HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"rows\":[[]]}").unwrap();
        assert_eq!(req.body, b"{\"rows\":[[]]}");
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(
            parse("BOGUS\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversize_head_and_body_are_shed_as_too_large() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            read_request(&mut Cursor::new(long.into_bytes()), &limits),
            Err(ReadError::TooLarge)
        ));
        let big = "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".to_string();
        assert!(matches!(
            read_request(&mut Cursor::new(big.into_bytes()), &limits),
            Err(ReadError::TooLarge)
        ));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(429, "overloaded", "queue full")
            .retry_after(1)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("\"error\":\"overloaded\""));
    }

    /// Serves `data` in reads that end at each offset in `cuts` (and at
    /// the end), never more than the caller's buffer holds; once the data
    /// is spent, a `stall` reader fails the next read as a socket timeout
    /// does.
    struct Chunked {
        data: Vec<u8>,
        cuts: Vec<usize>,
        pos: usize,
        stall: bool,
    }

    impl Chunked {
        fn new(data: &str, cuts: Vec<usize>, stall: bool) -> Self {
            Self {
                data: data.as_bytes().to_vec(),
                cuts,
                pos: 0,
                stall,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.data.len() && self.stall {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let end = self
                .cuts
                .iter()
                .copied()
                .find(|&c| c > self.pos && c < self.data.len())
                .unwrap_or(self.data.len());
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const INGEST: &str =
        "POST /v1/ingest?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 13\r\n\r\n{\"rows\":[[]]}";

    fn parse_chunked(cuts: Vec<usize>) -> String {
        let req = read_request(&mut Chunked::new(INGEST, cuts, false), &Limits::default());
        format!("{:?}", req.unwrap())
    }

    #[test]
    fn read_boundaries_do_not_change_the_request() {
        let req = parse(INGEST).unwrap();
        assert_eq!(req.body, b"{\"rows\":[[]]}");
        let whole = format!("{req:?}");
        let byte_per_read = (1..INGEST.len()).collect();
        assert_eq!(parse_chunked(byte_per_read), whole);
        // The head terminator straddles two reads.
        let terminator = INGEST.find("\r\n\r\n").unwrap();
        assert_eq!(parse_chunked(vec![terminator + 2]), whole);
        // Head and body arrive in one read.
        assert_eq!(parse_chunked(vec![]), whole);
    }

    #[test]
    fn a_read_timing_out_mid_head_is_timed_out() {
        let partial = "GET /x HTTP/1.1\r\nHo";
        for cuts in [vec![], (1..partial.len()).collect()] {
            assert!(matches!(
                read_request(&mut Chunked::new(partial, cuts, true), &Limits::default()),
                Err(ReadError::TimedOut)
            ));
        }
    }

    #[test]
    fn percent_decoding_rejects_malformed() {
        assert_eq!(percent_decode("a%20b+c"), Some("a b c".to_string()));
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%2"), None);
    }
}
