//! Request/response types over the `rf-net` HTTP machinery.
//!
//! Parsing itself lives in [`rf_net::HttpParser`] — the same incremental
//! state machine the reactor feeds nonblocking reads into — so there is
//! exactly one parser in the system; this module interprets a parsed
//! request for routing (method enum, split query parameters, UTF-8 body)
//! and builds responses, including keep-alive heads and `Arc`-shared JSON
//! bodies that stream straight out of the label cache.

use rf_net::{OutboundResponse, ParseEvent, ParsedRequest, ResponseBody};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// Supported HTTP methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
}

impl Method {
    /// Parses a method token.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

/// Minimal HTTP status codes used by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200 OK.
    Ok,
    /// 400 Bad Request.
    BadRequest,
    /// 404 Not Found.
    NotFound,
    /// 405 Method Not Allowed.
    MethodNotAllowed,
    /// 500 Internal Server Error.
    InternalServerError,
    /// 503 Service Unavailable (a resource bound was hit).
    ServiceUnavailable,
}

impl StatusCode {
    /// Numeric code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path component of the request target (no query string).
    pub path: String,
    /// Parsed query parameters.
    pub query: HashMap<String, String>,
    /// Request headers (names lower-cased).
    pub headers: HashMap<String, String>,
    /// Request body (empty when absent).
    pub body: String,
}

impl Request {
    /// Interprets a request parsed by the reactor's [`rf_net::HttpParser`]
    /// for routing.
    ///
    /// Returns `None` when the request cannot be routed (unsupported method,
    /// non-UTF-8 body) — the caller responds 400.
    #[must_use]
    pub fn from_parsed(parsed: ParsedRequest) -> Option<Request> {
        let method = Method::parse(&parsed.method)?;
        let (path, query) = split_target(&parsed.target);
        let body = String::from_utf8(parsed.body).ok()?;
        Some(Request {
            method,
            path,
            query,
            headers: parsed.headers,
            body,
        })
    }

    /// Reads and parses one request from a blocking stream (tests and
    /// simple clients; the server itself feeds the parser from nonblocking
    /// reads inside the reactor).
    ///
    /// Returns `None` for malformed requests (the caller responds 400).
    pub fn read_from<R: Read>(mut stream: R) -> Option<Request> {
        let mut parser = rf_net::HttpParser::new();
        let mut chunk = [0u8; 8192];
        loop {
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None; // EOF before a complete request.
            }
            match parser.feed(&chunk[..n]).ok()? {
                ParseEvent::Request(parsed) => return Request::from_parsed(parsed),
                ParseEvent::NeedMore => {}
            }
        }
    }

    /// A query parameter by name.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }
}

/// Splits a request target into its path and parsed query parameters.
fn split_target(target: &str) -> (String, HashMap<String, String>) {
    match target.split_once('?') {
        Some((path, query)) => (path.to_string(), parse_query(query)),
        None => (target.to_string(), HashMap::new()),
    }
}

/// Parses `a=1&b=two` into a map, percent-decoding names and values.  A
/// name given more than once keeps its last value.
fn parse_query(query: &str) -> HashMap<String, String> {
    query
        .split('&')
        .filter(|piece| !piece.is_empty())
        .filter_map(|piece| {
            let (name, value) = piece.split_once('=')?;
            Some((
                percent_decode(name).into_owned(),
                percent_decode(value).into_owned(),
            ))
        })
        .collect()
}

/// Minimal percent-decoding (`%XX` and `+` for space).  Input without `%`
/// or `+` is borrowed, so the reactor-side admission check, which decodes
/// query names and values the same way, allocates nothing on plain targets.
pub(crate) fn percent_decode(input: &str) -> Cow<'_, str> {
    if !input.contains(['%', '+']) {
        return Cow::Borrowed(input);
    }
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

/// A response body: owned text, or a document `Arc`-shared with the label
/// cache so N concurrent downloads of the same label stream from one
/// allocation instead of N copies.
///
/// Dereferences to `str`, so handler code (and tests) treat it as the
/// string it is.
#[derive(Debug, Clone)]
pub enum Body {
    /// Text owned by this response.
    Owned(String),
    /// Text shared with the cache (e.g. a pre-rendered label JSON).
    Shared(Arc<String>),
}

impl Body {
    /// The body text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            Body::Owned(text) => text,
            Body::Shared(text) => text,
        }
    }
}

impl std::ops::Deref for Body {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

/// An HTTP response ready to be written to a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content type header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// 200 response with an HTML body.
    #[must_use]
    pub fn html(body: impl Into<String>) -> Self {
        Response {
            status: StatusCode::Ok,
            content_type: "text/html; charset=utf-8",
            body: Body::Owned(body.into()),
        }
    }

    /// 200 response with a JSON body.
    #[must_use]
    pub fn json(body: impl Into<String>) -> Self {
        Response {
            status: StatusCode::Ok,
            content_type: "application/json",
            body: Body::Owned(body.into()),
        }
    }

    /// 200 response whose JSON body is shared with the label cache —
    /// the zero-copy warm-hit path.
    #[must_use]
    pub fn json_shared(body: Arc<String>) -> Self {
        Response {
            status: StatusCode::Ok,
            content_type: "application/json",
            body: Body::Shared(body),
        }
    }

    /// 200 response in the Prometheus text exposition format (version
    /// 0.0.4), served by `GET /metrics`.
    #[must_use]
    pub fn prometheus(body: impl Into<String>) -> Self {
        Response {
            status: StatusCode::Ok,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: Body::Owned(body.into()),
        }
    }

    /// Plain-text response with an arbitrary status.
    #[must_use]
    pub fn text(status: StatusCode, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(body.into()),
        }
    }

    /// Serializes the status line and headers (including the terminating
    /// blank line) for the given connection disposition.
    #[must_use]
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )
        .into_bytes()
    }

    /// Converts into the reactor's streaming form: pre-rendered head bytes
    /// plus a body chunk (shared bodies stay shared — no copy).
    #[must_use]
    pub fn into_outbound(self, keep_alive: bool) -> OutboundResponse {
        let head = self.head_bytes(keep_alive);
        let body = match self.body {
            Body::Owned(text) => ResponseBody::Owned(text.into_bytes()),
            Body::Shared(text) => ResponseBody::Shared(text),
        };
        OutboundResponse {
            head,
            body,
            keep_alive,
        }
    }

    /// Serializes the response (status line, headers, body) as a
    /// connection-closing exchange.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.head_bytes(false);
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Writes the response to a blocking stream (tests and simple clients).
    ///
    /// # Errors
    /// I/O errors from the stream.
    pub fn write_to<W: Write>(&self, mut stream: W) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_request_with_query() {
        let raw = "GET /datasets/cs/label?k=10&name=CS+departments HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = Request::read_from(raw.as_bytes()).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/datasets/cs/label");
        assert_eq!(req.query_param("k"), Some("10"));
        assert_eq!(req.query_param("name"), Some("CS departments"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_request_with_body() {
        let body = "a,b\n1,2\n";
        let raw = format!(
            "POST /labels HTTP/1.1\r\nContent-Length: {}\r\nContent-Type: text/csv\r\n\r\n{}",
            body.len(),
            body
        );
        let req = Request::read_from(raw.as_bytes()).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/labels");
        assert_eq!(req.body, body);
        assert_eq!(
            req.headers.get("content-type").map(String::as_str),
            Some("text/csv")
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::read_from("".as_bytes()).is_none());
        assert!(Request::read_from("BREW /coffee HTTP/1.1\r\n\r\n".as_bytes()).is_none());
        assert!(Request::read_from("GET\r\n\r\n".as_bytes()).is_none());
        // Oversized content length.
        let raw = "POST /labels HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(Request::read_from(raw.as_bytes()).is_none());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn response_serialization() {
        let resp = Response::json("{\"ok\":true}");
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.contains("Content-Length: 11"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn keep_alive_heads_and_shared_bodies() {
        let doc = Arc::new("{\"cached\":true}".to_string());
        let resp = Response::json_shared(Arc::clone(&doc));
        assert_eq!(&*resp.body, "{\"cached\":true}");

        let keep = String::from_utf8(resp.head_bytes(true)).unwrap();
        assert!(keep.contains("Connection: keep-alive"));
        assert!(keep.contains("Content-Length: 15"));
        let close = String::from_utf8(resp.head_bytes(false)).unwrap();
        assert!(close.contains("Connection: close"));

        // The outbound form shares the allocation, not a copy.
        let outbound = resp.into_outbound(true);
        assert!(outbound.keep_alive);
        match outbound.body {
            rf_net::ResponseBody::Shared(shared) => assert!(Arc::ptr_eq(&shared, &doc)),
            rf_net::ResponseBody::Owned(_) => panic!("shared body must stay shared"),
        }
    }

    #[test]
    fn from_parsed_rejects_unroutable_requests() {
        let mut parser = rf_net::HttpParser::new();
        let ParseEvent::Request(parsed) = parser
            .feed(b"BREW /coffee HTTP/1.1\r\n\r\n")
            .expect("well-formed")
        else {
            panic!("complete request");
        };
        assert!(Request::from_parsed(parsed).is_none(), "unknown method");

        let mut parser = rf_net::HttpParser::new();
        let ParseEvent::Request(parsed) = parser
            .feed(b"POST /labels HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe")
            .expect("well-formed")
        else {
            panic!("complete request");
        };
        assert!(Request::from_parsed(parsed).is_none(), "non-UTF-8 body");
    }

    #[test]
    fn status_codes() {
        assert_eq!(StatusCode::NotFound.code(), 404);
        assert_eq!(StatusCode::NotFound.reason(), "Not Found");
        assert_eq!(StatusCode::InternalServerError.code(), 500);
        let resp = Response::text(StatusCode::BadRequest, "nope");
        assert!(String::from_utf8(resp.to_bytes())
            .unwrap()
            .contains("400 Bad Request"));
    }
}
