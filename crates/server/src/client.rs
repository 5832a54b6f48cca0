//! Thin std-only HTTP client for the job API (the `armdse-client`
//! binary and the test suites are built on this).
//!
//! One request per connection, mirroring the server's
//! `Connection: close` discipline. Responses with
//! `Transfer-Encoding: chunked` are decoded incrementally —
//! [`stream`] hands each decoded chunk to a callback as it arrives, so
//! a caller observes rows at campaign chunk cadence, not at
//! end-of-job.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A decoded HTTP response: status code plus the full body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (chunked framing already removed).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issue one request and collect the whole body.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let mut collected = Vec::new();
    let status = stream(addr, method, path, body, &mut |chunk| {
        collected.extend_from_slice(chunk);
        Ok(())
    })?;
    Ok(Response {
        status,
        body: collected,
    })
}

/// Write one request, head and body in one `write`.
fn write_request(
    w: &mut impl Write,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(), String> {
    let len = body.len();
    let request = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n{body}");
    w.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))
}

/// Issue one request, handing each body fragment to `sink` as it is
/// decoded (per network chunk for chunked responses). Returns the
/// status code.
pub fn stream(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    sink: &mut dyn FnMut(&[u8]) -> Result<(), String>,
) -> Result<u16, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    write_request(&mut writer, addr, method, path, body.unwrap_or(""))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{}'", line.trim_end()))?;
    let mut chunked = false;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if name == "content-length" {
                content_length = value.parse().ok();
            }
        }
    }

    if chunked {
        loop {
            let mut size_line = String::new();
            reader
                .read_line(&mut size_line)
                .map_err(|e| format!("read chunk size: {e}"))?;
            let size = usize::from_str_radix(size_line.trim_end(), 16)
                .map_err(|_| format!("bad chunk size '{}'", size_line.trim_end()))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size];
            reader
                .read_exact(&mut chunk)
                .map_err(|e| format!("read chunk: {e}"))?;
            let mut crlf = [0u8; 2];
            reader
                .read_exact(&mut crlf)
                .map_err(|e| format!("read chunk terminator: {e}"))?;
            sink(&chunk)?;
        }
    } else if let Some(len) = content_length {
        let mut body = vec![0u8; len];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        sink(&body)?;
    } else {
        // Connection: close delimited.
        let mut body = Vec::new();
        reader
            .read_to_end(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        sink(&body)?;
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::Writes;

    #[test]
    fn a_request_is_one_write() {
        let mut w = Writes::default();
        write_request(&mut w, "127.0.0.1:9", "POST", "/jobs", "{}").unwrap();
        let head = "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:9\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(w.0, [head.as_bytes()]);
    }
}
