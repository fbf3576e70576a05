//! A minimal, std-only HTTP/1.1 request parser and response writer.
//!
//! The build environment is offline, so the serving tier hand-rolls the
//! small subset of HTTP it needs instead of depending on hyper: one
//! request per connection (`Connection: close` on every response), header
//! parsing limited to what routing and body framing require
//! (`Content-Length`), and a hard cap on total request bytes so a hostile
//! or broken client cannot balloon memory. The parser reads from any
//! [`Read`] and the writer writes to any [`Write`]; the server hands both
//! its `TcpStream`, whose own `set_read_timeout` / `set_write_timeout`
//! bound the wait — a read that times out surfaces as
//! [`ParseError::Timeout`].

use std::io::{Read, Write};

/// Longest request line + headers the parser accepts, independent of the
/// body cap (a request line alone should never need more).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// The request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, before any `?`.
    pub path: String,
    /// The raw query string after `?`, without the `?` (empty if none).
    pub query: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Iterates `key=value` pairs of the query string. No percent
    /// decoding: the serve API only uses unreserved characters.
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.query
            .split('&')
            .filter(|s| !s.is_empty())
            .filter_map(|kv| kv.split_once('='))
    }

    /// The first value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query_pairs().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Why a request could not be parsed; each maps to one HTTP status.
#[derive(Debug)]
pub enum ParseError {
    /// Structurally invalid request (→ 400).
    Malformed(String),
    /// Head or body exceeded the configured size cap (→ 413).
    TooLarge,
    /// The socket read timed out before a full request arrived (→ 408).
    Timeout,
    /// The peer closed the connection before sending a full request
    /// (no response possible — the connection is simply dropped).
    ConnectionClosed,
}

fn io_to_parse(e: std::io::Error) -> ParseError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ParseError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => ParseError::ConnectionClosed,
        _ => ParseError::Malformed(format!("read failed: {e}")),
    }
}

/// Reads and parses one request from `stream`. `max_body_bytes` caps the
/// declared `Content-Length`; the head (request line + headers) is capped
/// at 16 KiB regardless.
pub fn read_request<R: Read>(stream: &mut R, max_body_bytes: usize) -> Result<Request, ParseError> {
    // Accumulate until the blank line ending the head. Reads are small
    // and bounded; the socket's read timeout bounds total wait.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        let n = stream.read(&mut chunk).map_err(io_to_parse)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(ParseError::ConnectionClosed)
            } else {
                Err(ParseError::Malformed("connection closed mid-head".into()))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line: {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let len = parse_content_length(value)?;
            // RFC 9112 §6.3: differing lengths make the framing ambiguous.
            if content_length.is_some_and(|prev| prev != len) {
                return Err(ParseError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            content_length = Some(len);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(ParseError::TooLarge);
    }

    // Body: whatever arrived with the head, then read the remainder.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(ParseError::Malformed(
            "body longer than content-length".into(),
        ));
    }
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(io_to_parse)?;
        if n == 0 {
            return Err(ParseError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > content_length {
            return Err(ParseError::Malformed(
                "body longer than content-length".into(),
            ));
        }
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Ok(Request {
        method: method.to_owned(),
        path,
        query,
        body,
    })
}

/// A `Content-Length` value: ASCII digits only (RFC 9110 §8.6), around
/// optional whitespace. `str::parse` alone would also take a leading `+`.
fn parse_content_length(value: &str) -> Result<usize, ParseError> {
    let digits = value.trim();
    match digits.parse() {
        Ok(len) if digits.bytes().all(|b| b.is_ascii_digit()) => Ok(len),
        _ => Err(ParseError::Malformed(format!(
            "bad content-length: {value:?}"
        ))),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One HTTP response, written with `Connection: close` framing.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Optional `Retry-After` header value, in whole seconds.
    pub retry_after_secs: Option<u64>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after_secs: None,
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            retry_after_secs: None,
            body: body.into_bytes(),
        }
    }

    /// Attaches a `Retry-After` header (rounded up to whole seconds,
    /// minimum 1 — the header has no sub-second resolution).
    pub fn with_retry_after(mut self, after: std::time::Duration) -> Self {
        self.retry_after_secs = Some(after.as_secs_f64().ceil().max(1.0) as u64);
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }

    /// Serializes the response and writes it to `stream`.
    pub fn write_to<W: Write>(&self, stream: &mut W) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(160);
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        if let Some(secs) = self.retry_after_secs {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_bytes(mut bytes: &[u8], max_body: usize) -> Result<Request, ParseError> {
        read_request(&mut bytes, max_body)
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse_bytes(
            b"GET /query?node=3&attr=ML&method=codl HTTP/1.1\r\nHost: x\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("node"), Some("3"));
        assert_eq!(req.query_param("attr"), Some("ML"));
        assert_eq!(req.query_param("method"), Some("codl"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_bytes(
            b"POST /query HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"node\": 0}",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"node\": 0}");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let r = parse_bytes(b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 100);
        assert!(matches!(r, Err(ParseError::TooLarge)), "{r:?}");
    }

    #[test]
    fn content_length_takes_digits_only() {
        for bad in ["+5", "-5", "5 5", "0x5", "", "5,5"] {
            let raw = format!("POST /q HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let r = parse_bytes(raw.as_bytes(), 100);
            assert!(matches!(r, Err(ParseError::Malformed(_))), "{bad:?}: {r:?}");
        }
        let req =
            parse_bytes(b"POST /q HTTP/1.1\r\nContent-Length:\t5 \r\n\r\nhello", 100).unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let r = parse_bytes(
            b"POST /q HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 3\r\n\r\nhello",
            100,
        );
        assert!(matches!(r, Err(ParseError::Malformed(_))), "{r:?}");
        // Repeating the same length is unambiguous.
        let req = parse_bytes(
            b"POST /q HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            100,
        )
        .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        let r = parse_bytes(b"NONSENSE\r\n\r\n", 100);
        assert!(matches!(r, Err(ParseError::Malformed(_))), "{r:?}");
    }

    #[test]
    fn immediate_close_is_connection_closed() {
        let r = parse_bytes(b"", 100);
        assert!(matches!(r, Err(ParseError::ConnectionClosed)), "{r:?}");
    }

    #[test]
    fn response_serializes_with_retry_after() {
        let mut wire = Vec::new();
        Response::text(503, "overloaded\n")
            .with_retry_after(std::time::Duration::from_millis(25))
            .write_to(&mut wire)
            .unwrap();
        let out = String::from_utf8(wire).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{out}"
        );
        assert!(
            out.contains("Retry-After: 1\r\n"),
            "sub-second rounds up: {out}"
        );
        assert!(out.contains("Connection: close"), "{out}");
        assert!(out.ends_with("overloaded\n"), "{out}");
    }
}
