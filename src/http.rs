//! HTTP/1.1 message framing for both ends of the `served:` channel:
//! `skp-serve` reads requests and writes responses with it, and
//! [`http_request`] writes requests and reads responses. One message
//! each way per connection (`Connection: close`), at most
//! [`MAX_HEADERS`] header lines of at most [`MAX_LINE`] bytes, and
//! bodies framed by `Content-Length` only (RFC 9112 §6.3: digits only,
//! and a repeat must not contradict it). The readers take any
//! [`BufRead`]; malformed bytes are an [`io::ErrorKind::InvalidData`]
//! error, and a peer that closes before its first byte is
//! [`io::ErrorKind::UnexpectedEof`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::Error;
use crate::wire::Json;

/// Longest accepted start or header line, in bytes. Anything longer is
/// a peer bug or an attack, not a workload.
pub const MAX_LINE: usize = 8 * 1024;

/// Most header lines read from one message, so a peer cannot hold a
/// reader by sending headers forever.
pub const MAX_HEADERS: usize = 64;

/// Most body bytes reserved before they arrive, whatever
/// `Content-Length` claims.
const BODY_RESERVE: usize = 1 << 20;

/// How long the client waits for the daemon to answer one request.
/// Population runs are bounded (the daemon runs them synchronously), so
/// a stuck daemon should fail the run rather than hang the engine.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(600);

fn malformed(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn truncated() -> io::Error {
    malformed("message truncated: the connection closed mid-headers".into())
}

/// A message head: the start line and the header fields.
#[derive(Debug)]
pub struct Head {
    /// The request or status line, without its line ending.
    pub start_line: String,
    /// Header fields in arrival order, each value trimmed.
    pub headers: Vec<(String, String)>,
    /// The body length the `Content-Length` header declared, if any.
    pub content_length: Option<usize>,
}

impl Head {
    /// The method and path of a request line `METHOD /path HTTP/1.x`.
    pub fn request_line(&self) -> io::Result<(&str, &str)> {
        let mut parts = self.start_line.split(' ');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v), None)
                if !m.is_empty() && !p.is_empty() && v.starts_with("HTTP/1.") =>
            {
                Ok((m, p))
            }
            _ => Err(malformed(format!(
                "malformed request line '{}' (expected 'METHOD /path HTTP/1.1')",
                shown(&self.start_line)
            ))),
        }
    }

    /// The status code of a status line `HTTP/1.x NNN reason`.
    pub fn status(&self) -> io::Result<u16> {
        let line = &self.start_line;
        line.split_once(' ')
            .filter(|(version, _)| version.starts_with("HTTP/1."))
            .map(|(_, rest)| rest.split_once(' ').map_or(rest, |(code, _)| code))
            .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed(format!("malformed status line '{}'", shown(line))))
    }
}

/// Reads one line of at most [`MAX_LINE`] bytes, without its ending.
fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut line)?;
    match line.pop() {
        Some(b'\n') => {}
        None => return Err(io::ErrorKind::UnexpectedEof.into()),
        Some(_) if line.len() == MAX_LINE => {
            return Err(malformed(format!("header line over {MAX_LINE} bytes")))
        }
        Some(_) => return Err(truncated()),
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| malformed("header bytes are not valid UTF-8".into()))
}

/// Reads a message head: the start line, then header lines up to the
/// empty line that ends them.
pub fn read_head(reader: &mut impl BufRead) -> io::Result<Head> {
    let start_line = read_line(reader)?;
    let mut head = Head {
        start_line,
        headers: Vec::new(),
        content_length: None,
    };
    loop {
        let line = read_line(reader).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => truncated(),
            _ => e,
        })?;
        if line.is_empty() {
            return Ok(head);
        }
        if head.headers.len() == MAX_HEADERS {
            return Err(malformed(format!(
                "more than {MAX_HEADERS} headers (the cap on header lines)"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!(
                "malformed header '{}' (no colon)",
                shown(&line)
            )));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    malformed(format!(
                        "Content-Length '{}' is not a byte count",
                        shown(value)
                    ))
                })?;
            if head.content_length.is_some_and(|first| first != length) {
                return Err(malformed("conflicting Content-Length headers".into()));
            }
            head.content_length = Some(length);
        }
        head.headers.push((name.to_string(), value.to_string()));
    }
}

/// Reads a body of exactly `length` bytes, decoded as UTF-8. The buffer
/// grows only as bytes arrive; a body shorter than `length` is an error.
pub fn read_body(reader: &mut impl Read, length: usize) -> io::Result<String> {
    let mut raw = Vec::with_capacity(length.min(BODY_RESERVE));
    reader.take(length as u64).read_to_end(&mut raw)?;
    if raw.len() < length {
        return Err(malformed(format!(
            "body truncated: closed after {} of the {length} bytes its Content-Length announced",
            raw.len()
        )));
    }
    String::from_utf8(raw).map_err(|_| malformed("body bytes are not valid UTF-8".into()))
}

/// Writes one message in one write: the start line, `Content-Type`,
/// `Content-Length`, `headers`, `Connection: close` and `body`.
pub fn write_message(
    out: &mut impl Write,
    start_line: &str,
    headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut message = format!(
        "{start_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        message += &format!("{name}: {value}\r\n");
    }
    message += "Connection: close\r\n\r\n";
    message += body;
    out.write_all(message.as_bytes())?;
    out.flush()
}

/// At most 64 bytes of `raw`, for echoing peer input in an error.
fn shown(raw: &str) -> String {
    const SHOWN: usize = 64;
    if raw.len() <= SHOWN {
        raw.to_string()
    } else {
        let cut = (0..=SHOWN).rev().find(|&i| raw.is_char_boundary(i));
        format!("{}…", &raw[..cut.unwrap_or(0)])
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// The `Retry-After` header in integer seconds, if the server sent
    /// one (the daemon does on `503` shed responses). Parsed at
    /// header-read time; a non-integer value fails the whole response
    /// as malformed rather than smuggling garbage into retry logic.
    pub retry_after: Option<u64>,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// A human-readable error detail for a non-200 response: the
    /// daemon's structured `{"error":{"kind":…,"detail":…}}` body when
    /// present, the raw body otherwise, with any `Retry-After` hint
    /// appended.
    pub fn error_detail(&self) -> String {
        let mut detail = Json::parse(self.body.trim())
            .ok()
            .and_then(|doc| {
                let err = doc.get("error")?;
                let kind = err.get("kind")?.as_str()?.to_string();
                let text = err.get("detail")?.as_str()?.to_string();
                Some(format!("{kind}: {text}"))
            })
            .unwrap_or_else(|| self.body.trim().to_string());
        if let Some(after) = self.retry_after {
            detail.push_str(&format!(" (retry after {after}s)"));
        }
        detail
    }
}

/// Sends one HTTP/1.1 request (`Connection: close`, plain `std::net`)
/// and reads the full response. I/O failures surface as [`Error::Io`];
/// a response the client cannot parse surfaces as
/// [`Error::InvalidParam`].
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, Error> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
    write_message(
        &mut stream,
        &format!("{method} {path} HTTP/1.1"),
        &[("Host", addr)],
        "application/json",
        body.unwrap_or(""),
    )?;
    read_response(&mut BufReader::new(stream)).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => Error::InvalidParam {
            what: "served backend",
            detail: format!("malformed daemon reply: {e}"),
        },
        _ => Error::Io(e),
    })
}

/// Reads one response. A response must carry `Content-Length`: the
/// daemon always sends it, and reading to EOF instead would let a peer
/// stream without end.
fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let head = read_head(reader)?;
    let status = head.status()?;
    let retry_after = head
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .map(|(_, raw)| {
            raw.parse::<u64>().map_err(|_| {
                malformed(format!(
                    "Retry-After header '{}' is not integer seconds",
                    shown(raw)
                ))
            })
        })
        .transpose()?;
    let length = head.content_length.ok_or_else(|| {
        malformed("no Content-Length header (replies are framed by Content-Length only)".into())
    })?;
    Ok(HttpResponse {
        status,
        retry_after,
        body: read_body(reader, length)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reads a head and the body it frames (none without
    /// `Content-Length`), as the daemon does for a request.
    fn read_message(mut bytes: &[u8]) -> io::Result<(Head, String)> {
        let head = read_head(&mut bytes)?;
        let body = read_body(&mut bytes, head.content_length.unwrap_or(0))?;
        Ok((head, body))
    }

    fn detail(result: io::Result<(Head, String)>) -> String {
        match result {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => e.to_string(),
            other => panic!("expected a malformed message, got {other:?}"),
        }
    }

    fn request(body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_message(
            &mut out,
            "POST /run HTTP/1.1",
            &[("Host", "127.0.0.1:7077")],
            "application/json",
            body,
        )
        .unwrap();
        out
    }

    fn response(body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_message(
            &mut out,
            "HTTP/1.1 503 Service Unavailable",
            &[("Retry-After", "1")],
            "application/json",
            body,
        )
        .unwrap();
        out
    }

    #[test]
    fn written_messages_read_back() {
        let (head, body) = read_message(&request("{\"x\":1}")).unwrap();
        assert_eq!(head.request_line().unwrap(), ("POST", "/run"));
        assert_eq!(head.headers[2], ("Host".into(), "127.0.0.1:7077".into()));
        assert_eq!(head.content_length, Some(7));
        assert_eq!(body, "{\"x\":1}");

        let reply = read_response(&mut response("busy").as_slice()).unwrap();
        assert_eq!(
            (reply.status, reply.retry_after, reply.body.as_str()),
            (503, Some(1), "busy")
        );
    }

    #[test]
    fn a_response_head_is_byte_exact() {
        let mut out = Vec::new();
        write_message(
            &mut out,
            "HTTP/1.1 503 Service Unavailable",
            &[("Retry-After", "1")],
            "text/plain",
            "ok",
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
             Content-Length: 2\r\nRetry-After: 1\r\nConnection: close\r\n\r\nok"
        );
    }

    #[test]
    fn a_start_line_must_speak_http_1() {
        let head = |line: &str| read_head(&mut format!("{line}\r\n\r\n").as_bytes()).unwrap();
        for line in ["HTTP/1.1 200 OK", "HTTP/1.0 404 Not Found", "HTTP/1.1 200"] {
            assert!(head(line).status().is_ok(), "{line}");
        }
        for line in [
            "garbage 200 x",
            "HTTP/2 200 OK",
            "HTTP/1.1 20 OK",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1 +20 OK",
            "HTTP/1.1",
        ] {
            let err = head(line).status().unwrap_err().to_string();
            assert!(err.contains("malformed status line"), "{line}: {err}");
        }
        assert!(head("GET /version HTTP/1.1").request_line().is_ok());
        for line in [
            "GET /version SPDY/3",
            "GARBAGE",
            "GET  HTTP/1.1",
            "GET / HTTP/1.1 x",
        ] {
            let err = head(line).request_line().unwrap_err();
            assert!(err.to_string().contains("request line"), "{line}: {err}");
        }
    }

    #[test]
    fn a_header_without_a_colon_is_malformed_on_both_sides() {
        for start in ["GET / HTTP/1.1", "HTTP/1.1 200 OK"] {
            let raw = format!("{start}\r\nNoColonHere\r\n\r\n");
            assert!(detail(read_message(raw.as_bytes())).contains("no colon"));
        }
    }

    #[test]
    fn content_length_is_digits_only() {
        for bad in [
            "+5",
            "-0",
            "5 5",
            "0x5",
            "lots",
            "",
            "99999999999999999999999",
        ] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {bad}\r\n\r\nhello");
            let err = detail(read_message(raw.as_bytes()));
            assert!(err.contains("Content-Length"), "{bad}: {err}");
        }
        let raw = "HTTP/1.1 200 OK\r\ncontent-length:  5 \r\n\r\nhello";
        assert_eq!(read_message(raw.as_bytes()).unwrap().1, "hello");
    }

    #[test]
    fn a_repeated_content_length_must_agree() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(read_message(raw.as_bytes()).unwrap().1, "hello");
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello";
        let err = detail(read_message(raw.as_bytes()));
        assert!(err.contains("conflicting Content-Length"), "{err}");
    }

    #[test]
    fn lines_and_header_counts_are_capped() {
        let long = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "j".repeat(MAX_LINE));
        assert!(detail(read_message(long.as_bytes())).contains("over 8192 bytes"));
        let fits = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "j".repeat(MAX_LINE - 4));
        assert!(read_message(fits.as_bytes()).is_ok());

        let many = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: p\r\n".repeat(n));
        assert_eq!(
            read_message(many(MAX_HEADERS).as_bytes())
                .unwrap()
                .0
                .headers
                .len(),
            MAX_HEADERS
        );
        let err = detail(read_message(many(MAX_HEADERS + 1).as_bytes()));
        assert!(err.contains("more than 64 headers"), "{err}");
        assert!(err.contains("header lines"), "{err}");
    }

    #[test]
    fn truncation_and_encoding_errors_are_malformed() {
        let closed = read_message(b"").unwrap_err();
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof);
        for raw in [
            &b"POST /ru"[..],
            b"GET / HTTP/1.1\r\n",
            b"GET / HTTP/1.1\r\nHost: x",
        ] {
            let err = detail(read_message(raw));
            assert!(err.contains("truncated"), "{err}");
            assert!(err.contains("closed mid-headers"), "{err}");
        }
        let err = detail(read_message(
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok",
        ));
        assert!(err.contains("2 of the 10"), "{err}");
        assert!(detail(read_message(b"GET /\xff HTTP/1.1\r\n\r\n")).contains("UTF-8"));
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xff";
        assert!(detail(read_message(raw)).contains("UTF-8"));
    }

    #[test]
    fn a_reply_needs_a_content_length() {
        let err = read_response(&mut &b"HTTP/1.1 200 OK\r\n\r\nok"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, alone or after a valid head, give a message
        /// or an error, never a panic.
        #[test]
        fn hostile_bytes_never_panic(
            junk in proptest::collection::vec(0u8..=255, 0..200),
            after_head in proptest::bool::ANY,
        ) {
            let mut raw = if after_head { b"GET / HTTP/1.1\r\n".to_vec() } else { Vec::new() };
            raw.extend_from_slice(&junk);
            if let Ok((head, _)) = read_message(&raw) {
                let _ = (head.request_line(), head.status());
            }
            let _ = read_response(&mut raw.as_slice());
        }

        /// A strict prefix of a valid request or response never reads as
        /// a complete message; the whole message reads back exactly.
        #[test]
        fn strict_prefixes_never_read_as_messages(
            body in proptest::collection::vec(32u8..127, 0..64),
        ) {
            let body = String::from_utf8(body).unwrap();
            for message in [request(&body), response(&body)] {
                let (_, read) = read_message(&message).unwrap();
                prop_assert_eq!(&read, &body);
                for cut in 0..message.len() {
                    prop_assert!(read_message(&message[..cut]).is_err(), "cut {}", cut);
                }
            }
            let reply = response(&body);
            prop_assert_eq!(read_response(&mut reply.as_slice()).unwrap().body, body.clone());
            for cut in 0..reply.len() {
                prop_assert!(read_response(&mut &reply[..cut]).is_err(), "cut {}", cut);
            }
        }
    }
}
