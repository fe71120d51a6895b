//! The daemon's side of HTTP/1.1: the routable [`Request`], the typed
//! [`HttpError`] each malformed request maps to (so wire-boundary
//! failures are structured answers, not dropped connections) and the
//! [`Response`] a worker writes. The framing is
//! `speculative_prefetch::http`, which the `served:` client reads
//! replies with.

use std::io::{self, BufRead, ErrorKind, Write};

use speculative_prefetch::http;

/// A parsed request: method, path and (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request path (`/run`, `/stats`, …), as sent.
    pub path: String,
    /// The request body, decoded as UTF-8.
    pub body: String,
}

/// Everything that can go wrong between `accept()` and a routable
/// [`Request`], tagged with the HTTP status it maps to.
#[derive(Debug)]
pub enum HttpError {
    /// 400 — the request line, a header or the body bytes were
    /// malformed (includes truncated requests: EOF mid-line).
    BadRequest(String),
    /// 411 — a `POST` arrived without `Content-Length`; the daemon
    /// never guesses body framing.
    LengthRequired,
    /// 413 — the declared `Content-Length` exceeds the configured body
    /// cap. Detected before reading the body.
    PayloadTooLarge {
        /// Declared body size in bytes.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// The client vanished or timed out mid-request; nothing to answer.
    Disconnected,
}

impl HttpError {
    /// The response this error maps to (`Disconnected` maps to none).
    pub fn into_response(self) -> Option<Response> {
        match self {
            HttpError::BadRequest(detail) => Some(Response::error(400, "bad-request", &detail)),
            HttpError::LengthRequired => Some(Response::error(
                411,
                "length-required",
                "POST bodies need a Content-Length header (chunked transfer is not supported)",
            )),
            HttpError::PayloadTooLarge { declared, limit } => Some(Response::error(
                413,
                "payload-too-large",
                &format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
            )),
            HttpError::Disconnected => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            ErrorKind::InvalidData => HttpError::BadRequest(e.to_string()),
            ErrorKind::UnexpectedEof | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                HttpError::Disconnected
            }
            _ => HttpError::BadRequest(format!("read failed: {e}")),
        }
    }
}

/// Reads and parses one request, enforcing `max_body`: a declared body
/// over the cap is refused before a byte of it is read.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let head = http::read_head(reader)?;
    let (method, path) = head.request_line()?;
    let body = match head.content_length {
        None if method == "POST" => return Err(HttpError::LengthRequired),
        None => String::new(),
        Some(declared) if declared > max_body => {
            return Err(HttpError::PayloadTooLarge {
                declared,
                limit: max_body,
            })
        }
        Some(declared) => http::read_body(reader, declared)?,
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// A response ready to serialise: status, body, content type and the
/// optional `Retry-After` hint the load-shedding path sets.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value (`application/json` unless a
    /// constructor or [`with_content_type`](Self::with_content_type)
    /// says otherwise — `GET /metrics` answers Prometheus text).
    pub content_type: &'static str,
    /// Seconds for the `Retry-After` header, set on `503`.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A `200 OK` with the given JSON body.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            body,
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A structured error: `{"error":{"kind":…,"detail":…}}`.
    pub fn error(status: u16, kind: &str, detail: &str) -> Self {
        Response {
            status,
            body: format!(
                "{{\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
                speculative_prefetch::wire::esc(kind),
                speculative_prefetch::wire::esc(detail)
            ),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` hint (the load-shedding `503` path).
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Overrides the `Content-Type` header.
    pub fn with_content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = content_type;
        self
    }

    /// Serialises the response onto `out` (`Connection: close`).
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            411 => "Length Required",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let retry = self.retry_after.map(|s| s.to_string());
        let retry = retry.as_deref().map(|s| ("Retry-After", s));
        http::write_message(
            out,
            &format!("HTTP/1.1 {} {reason}", self.status),
            retry.as_slice(),
            self.content_type,
            &self.body,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_are_structured_json() {
        let r = Response::error(400, "bad-request", "no \"colon\"");
        assert_eq!(r.status, 400);
        assert!(r.body.starts_with("{\"error\":{\"kind\":\"bad-request\""));
        assert!(r.body.contains("\\\"colon\\\""), "{}", r.body);
    }

    #[test]
    fn retry_after_is_carried() {
        let r = Response::error(503, "queue-full", "x").with_retry_after(1);
        assert_eq!(r.retry_after, Some(1));
    }

    #[test]
    fn content_type_defaults_to_json_and_can_be_overridden() {
        assert_eq!(Response::json("{}".into()).content_type, "application/json");
        assert_eq!(
            Response::error(400, "bad-request", "x").content_type,
            "application/json"
        );
        let r = Response::json("x 1\n".into())
            .with_content_type("text/plain; version=0.0.4; charset=utf-8");
        assert!(r.content_type.starts_with("text/plain"));
    }

    #[test]
    fn http_errors_map_to_their_statuses() {
        assert_eq!(
            HttpError::BadRequest("x".into())
                .into_response()
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            HttpError::LengthRequired.into_response().unwrap().status,
            411
        );
        let r = HttpError::PayloadTooLarge {
            declared: 10,
            limit: 5,
        }
        .into_response()
        .unwrap();
        assert_eq!(r.status, 413);
        assert!(r.body.contains("10") && r.body.contains('5'));
        assert!(HttpError::Disconnected.into_response().is_none());
    }

    fn read(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        read_request(&mut &raw[..], max_body)
    }

    fn status(result: Result<Request, HttpError>) -> Option<u16> {
        result.unwrap_err().into_response().map(|r| r.status)
    }

    #[test]
    fn requests_read_from_bytes() {
        let req = read(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi", 16).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/run"));
        assert_eq!(req.body, "hi");
        let req = read(b"GET /stats HTTP/1.0\r\n\r\n", 16).unwrap();
        assert_eq!((req.path.as_str(), req.body.as_str()), ("/stats", ""));
    }

    #[test]
    fn each_framing_failure_maps_to_its_status() {
        assert_eq!(status(read(b"POST /run HTTP/1.1\r\n\r\n", 16)), Some(411));
        // Refused from the header alone: no body byte follows.
        let head = b"POST /run HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
        assert_eq!(status(read(head, 16)), Some(413));
        assert_eq!(status(read(b"POST /ru", 16)), Some(400));
        assert_eq!(
            status(read(b"GET / HTTP/1.1\r\nNoColon\r\n\r\n", 16)),
            Some(400)
        );
        assert_eq!(status(read(b"GET / HTTP/2\r\n\r\n", 16)), Some(400));
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi";
        assert_eq!(status(read(raw, 16)), Some(400));
        // Nothing sent, or a read timeout: nothing to answer.
        assert_eq!(status(read(b"", 16)), None);
        let timeout = io::Error::from(ErrorKind::TimedOut);
        assert!(matches!(HttpError::from(timeout), HttpError::Disconnected));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random bytes are a request or an error, never a panic; a
        /// strict prefix of a valid request is never a request.
        #[test]
        fn hostile_and_truncated_requests_are_errors(
            junk in proptest::collection::vec(0u8..=255, 0..200),
            body in proptest::collection::vec(32u8..127, 0..32),
        ) {
            let _ = read(&junk, 16);
            let mut raw = format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
                .into_bytes();
            raw.extend_from_slice(&body);
            let request = read(&raw, 64).unwrap();
            proptest::prop_assert_eq!(request.body.as_bytes(), &body[..]);
            for cut in 0..raw.len() {
                proptest::prop_assert!(read(&raw[..cut], 64).is_err(), "cut {}", cut);
            }
        }
    }
}
