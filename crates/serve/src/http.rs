//! Minimal HTTP/1.1 request parsing and response writing over a
//! [`TcpStream`].
//!
//! This is deliberately not a web framework: the daemon speaks exactly
//! the subset the `served:` backend and a curl session need —
//! `Connection: close` per request, `Content-Length` bodies, no chunked
//! transfer, no keep-alive, no TLS. Every way a request can be
//! malformed maps to one typed [`HttpError`] carrying the status code
//! the worker answers with, so wire-boundary failures are structured
//! instead of dropped connections.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use speculative_prefetch::served::MAX_HEADERS;

/// Longest accepted request line or header line, in bytes. Anything
/// longer is a client bug or an attack, not a workload. The `served:`
/// client holds the daemon's replies to the same cap.
pub const MAX_LINE: usize = speculative_prefetch::served::MAX_HEADER_LINE;

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

/// Reads one `\r\n`-terminated line, rejecting lines over `MAX_LINE`
/// bytes. EOF before the terminator is a truncated request.
fn read_line(reader: &mut BufReader<&mut TcpStream>) -> Result<String, HttpError> {
    let mut line = Vec::with_capacity(128);
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Err(HttpError::Disconnected)
                } else {
                    Err(HttpError::BadRequest(
                        "request truncated mid-line (connection closed before CRLF)".to_string(),
                    ))
                }
            }
            Ok(_) => {}
            Err(e) => {
                return Err(match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        HttpError::Disconnected
                    }
                    _ => HttpError::BadRequest(format!("read failed: {e}")),
                })
            }
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| {
                HttpError::BadRequest("header bytes are not valid UTF-8".to_string())
            });
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(HttpError::BadRequest(format!(
                "header line exceeds {MAX_LINE} bytes"
            )));
        }
    }
}

/// Reads and parses one request from the stream, enforcing `max_body`.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);

    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line '{}' (expected 'METHOD /path HTTP/1.1')",
                truncate(&request_line)
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version '{}'",
            truncate(version)
        )));
    }
    let method = method.to_string();
    let path = path.to_string();

    let mut content_length: Option<usize> = None;
    let mut headers = 0;
    loop {
        let header = read_line(&mut reader)?;
        if header.is_empty() {
            break;
        }
        // A cap on the count too, so one connection cannot hold a
        // worker by sending headers forever.
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::BadRequest(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header '{}' (no colon)",
                truncate(&header)
            )));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.trim().parse().map_err(|_| {
                HttpError::BadRequest(format!(
                    "Content-Length '{}' is not a byte count",
                    value.trim()
                ))
            })?);
        }
    }

    let body = match content_length {
        None if method == "POST" => return Err(HttpError::LengthRequired),
        None | Some(0) => String::new(),
        Some(declared) if declared > max_body => {
            return Err(HttpError::PayloadTooLarge {
                declared,
                limit: max_body,
            })
        }
        Some(declared) => {
            let mut raw = vec![0u8; declared];
            reader.read_exact(&mut raw).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => HttpError::BadRequest(format!(
                    "body truncated (Content-Length said {declared} bytes)"
                )),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    HttpError::Disconnected
                }
                _ => HttpError::BadRequest(format!("body read failed: {e}")),
            })?;
            String::from_utf8(raw)
                .map_err(|_| HttpError::BadRequest("body bytes are not valid UTF-8".to_string()))?
        }
    };

    Ok(Request { method, path, body })
}

fn truncate(raw: &str) -> String {
    const SHOWN: usize = 64;
    if raw.len() <= SHOWN {
        raw.to_string()
    } else {
        let cut = (0..=SHOWN).rev().find(|&i| raw.is_char_boundary(i));
        format!("{}…", &raw[..cut.unwrap_or(0)])
    }
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

    /// Serialises the response onto the stream (`Connection: close`).
    pub fn write(&self, stream: &mut TcpStream) -> std::io::Result<()> {
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
        let retry = self
            .retry_after
            .map(|s| format!("Retry-After: {s}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
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
}
