//! Minimal hand-rolled HTTP/1.1, std-only.
//!
//! The repo's zero-external-dependency guarantee extends to the wire:
//! no hyper, no tokio — just enough of RFC 9112 over
//! [`std::net::TcpStream`] to serve the job API in docs/SERVER.md.
//! Deliberate simplifications, documented there too:
//!
//! * every response carries `Connection: close` and the server closes
//!   the socket after one exchange (no keep-alive state machine);
//! * request bodies require `Content-Length` (no inbound chunked
//!   decoding — only responses use chunked transfer encoding): a
//!   request with `Transfer-Encoding` gets `501`, and one whose
//!   `Content-Length` values disagree gets `400` (RFC 9112 §6.1, §6.3),
//!   both before any body byte is read;
//! * request line and headers are capped ([`MAX_HEAD_BYTES`]) and
//!   bodies capped ([`MAX_BODY_BYTES`]) so a misbehaving client cannot
//!   balloon server memory, and a read of either waits at most
//!   `READ_TIMEOUT` so a silent one cannot hold a thread.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on the request line + headers (64 KiB).
pub(crate) const MAX_HEAD_BYTES: usize = 64 * 1024;

/// How long one read of a request may wait for the peer's next byte
/// before the connection is answered 408 and closed.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Cap on a request body (1 MiB — job specs are a few hundred bytes).
pub(crate) const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not used by this API).
    pub path: String,
    /// Headers, names lowercased, in arrival order (first wins on
    /// lookup).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this name (lowercase), if any.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read, as the error response to send.
#[derive(Debug)]
pub(crate) struct RequestError {
    /// 408 when the peer stalled past the socket's read timeout, 501
    /// for a `Transfer-Encoding` this server cannot decode, 400 for
    /// everything malformed.
    pub status: u16,
    /// Human-readable reason for the response body.
    pub reason: String,
}

impl From<String> for RequestError {
    fn from(reason: String) -> RequestError {
        RequestError {
            status: 400,
            reason,
        }
    }
}

impl From<&str> for RequestError {
    fn from(reason: &str) -> RequestError {
        reason.to_string().into()
    }
}

/// A failed socket read. One that outlasted the read timeout reports
/// `WouldBlock` on Unix and `TimedOut` on Windows.
fn read_failed(what: &str, e: std::io::Error) -> RequestError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        RequestError {
            status: 408,
            reason: format!("{what}: the client stalled past the read timeout"),
        }
    } else {
        format!("{what}: {e}").into()
    }
}

/// Read and parse one request from `stream`.
pub(crate) fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, RequestError> {
    let mut head = Vec::new();
    // Read up to the blank line, byte-capped.
    loop {
        let mut line = Vec::new();
        let n = reader
            .by_ref()
            .take((MAX_HEAD_BYTES - head.len()) as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(|e| read_failed("read error", e))?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(format!("request head exceeds {MAX_HEAD_BYTES} bytes").into());
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing request target")?.to_string();
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}").into());
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line '{line}'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(RequestError {
            status: 501,
            reason: "Transfer-Encoding is not supported: send Content-Length".into(),
        });
    }
    let mut lengths = req.headers.iter().filter(|(n, _)| n == "content-length");
    if let Some((_, len)) = lengths.next() {
        if lengths.any(|(_, other)| other != len) {
            return Err("conflicting Content-Length values".into());
        }
        let len: usize = len
            .parse()
            .map_err(|_| format!("bad Content-Length '{len}'"))?;
        if len > MAX_BODY_BYTES {
            return Err(format!("body of {len} bytes exceeds {MAX_BODY_BYTES}").into());
        }
        let mut body = vec![0u8; len];
        reader
            .read_exact(&mut body)
            .map_err(|e| read_failed("short body", e))?;
        req.body = body;
    }
    Ok(req)
}

/// Reason phrase for the handful of status codes this API uses.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Write a complete (non-chunked) response, head and body in one
/// `write`, and flush.
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(&[head.as_bytes(), body].concat())?;
    stream.flush()
}

/// Write the head of a chunked response in one `write`; follow with
/// [`write_chunk`] and [`finish_chunks`].
pub(crate) fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status)
    );
    stream.write_all(head.as_bytes())
}

/// Write one non-empty chunk of a chunked body (after
/// [`write_chunked_head`]) in one `write`, flushed so clients observe rows
/// as the campaign produces them. Empty input is skipped: a zero-size
/// chunk would terminate the stream.
pub(crate) fn write_chunk(stream: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let size = format!("{:x}\r\n", data.len());
    stream.write_all(&[size.as_bytes(), data, b"\r\n"].concat())?;
    stream.flush()
}

/// Terminate a chunked body (zero-size chunk, no trailers).
pub(crate) fn finish_chunks(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, RequestError> {
        // Push raw bytes through a real socket pair so the reader path
        // is exactly the production one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let req = read_request(&mut BufReader::new(stream));
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("content-length"), Some("5"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_bare_get() {
        let req = round_trip(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_bad_lengths() {
        assert!(round_trip(b"nonsense\r\n\r\n").is_err());
        assert!(round_trip(b"GET /x SPDY/3\r\n\r\n").is_err());
        assert!(round_trip(b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n").is_err());
        // Declared body longer than what arrives -> short-body error.
        assert!(round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nabc").is_err());
        // Bodies this parser cannot frame are refused before any is read.
        let status = |raw: &[u8]| round_trip(raw).unwrap_err().status;
        let two_lengths =
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 500\r\n\r\nhello";
        assert_eq!(status(two_lengths), 400);
        let chunked =
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(status(chunked), 501);
        assert_eq!(reason(501), "Not Implemented");
    }

    #[test]
    fn a_peer_that_stalls_mid_request_times_out_with_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.write_all(b"GET /sta").unwrap(); // ...and never finishes the line
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let started = std::time::Instant::now();
        let err = read_request(&mut BufReader::new(stream)).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(1), "read hung");
        assert_eq!(err.status, 408, "{}", err.reason);
        assert_eq!(reason(408), "Request Timeout");
        drop(peer); // held open until here: the server gave up, not the client
    }

    /// A writer that records each `write` call.
    #[derive(Default)]
    pub(crate) struct Writes(pub(crate) Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write() {
        let mut w = Writes::default();
        write_response(&mut w, 404, "application/json", b"{}").unwrap();
        write_chunked_head(&mut w, 200, "text/csv").unwrap();
        write_chunk(&mut w, b"a,b\n").unwrap();
        write_chunk(&mut w, &[b'x'; 300]).unwrap();
        finish_chunks(&mut w).unwrap();
        let x300 = format!("12c\r\n{}\r\n", "x".repeat(300));
        let expected = [
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            "4\r\na,b\n\r\n",
            &x300,
            "0\r\n\r\n",
        ];
        let writes: Vec<String> =
            w.0.iter()
                .map(|b| String::from_utf8_lossy(b).into())
                .collect();
        assert_eq!(writes, expected);
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            write_chunked_head(&mut stream, 200, "text/plain").unwrap();
            write_chunk(&mut stream, b"hello ").unwrap();
            write_chunk(&mut stream, b"").unwrap(); // skipped, must not terminate
            write_chunk(&mut stream, b"world").unwrap();
            finish_chunks(&mut stream).unwrap();
        });
        let mut out = Vec::new();
        TcpStream::connect(addr)
            .unwrap()
            .read_to_end(&mut out)
            .unwrap();
        server.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"));
    }
}
