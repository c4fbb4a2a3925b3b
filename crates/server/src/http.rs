//! Minimal HTTP/1.1 over `std::net` — hand-rolled on purpose: the build
//! environment is offline and the repo's policy is zero new dependencies.
//!
//! This is the server half: it parses exactly what the campaign API
//! needs (request line, headers, `Content-Length` body) within fixed
//! bounds ([`MAX_LINE`], [`MAX_HEADERS`], [`MAX_BODY`], [`IO_TIMEOUT`])
//! and always answers with `Connection: close`, so a connection carries
//! one request. The client half is [`crate::client`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body (a million-config grid is ~kilobytes;
/// this bound exists to shed hostile inputs, not to constrain use).
pub const MAX_BODY: usize = 16 << 20;

/// Longest accepted request or header line, line ending included.
pub const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// Read and write timeout on every accepted connection, so a client that
/// connects and then stalls frees its handler instead of holding it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    pub body: Vec<u8>,
}

pub(crate) fn bad_input(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Appends one line to `buf`, refusing lines longer than [`MAX_LINE`].
fn read_capped_line(reader: &mut impl BufRead, buf: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64 + 1).read_line(buf)?;
    if n > MAX_LINE {
        return Err(bad_input("line too long"));
    }
    Ok(n)
}

/// Reads one request from the stream. Returns `Err` on malformed input
/// (including over-long lines and too many headers); the caller answers
/// 400 and closes.
pub fn read_request(stream: &TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_capped_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_input("empty request line"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad_input("missing target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(bad_input("target must be absolute"));
    }

    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let mut h = String::new();
        if read_capped_line(&mut reader, &mut h)? == 0 {
            return Err(bad_input("connection closed inside headers"));
        }
        let t = h.trim();
        if t.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(bad_input("too many headers"));
        }
        if let Some((k, v)) = t.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| bad_input("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad_input("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response with the `extra` headers (name, value
/// pairs) and flushes. `Connection: close` always.
pub fn respond_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// JSON response helper.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond_with_headers(stream, status, "application/json", &[], body.as_bytes())
}

/// A one-line JSON error body.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    let body = flexsim::jsonio::obj(vec![(
        "error",
        flexsim::jsonio::Json::Str(message.to_string()),
    )])
    .to_string();
    respond_json(stream, status, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Sends `raw` from a client thread and returns what `read_request`
    /// made of it. The client ignores write errors: the server may close
    /// before reading everything.
    fn parse_raw(raw: Vec<u8>) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(&raw);
        });
        let (stream, _) = listener.accept().unwrap();
        let req = read_request(&stream);
        drop(stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn malformed_request_line_rejected() {
        assert!(parse_raw(b"garbage\r\n\r\n".to_vec()).is_err());
    }

    #[test]
    fn over_long_lines_rejected() {
        let long = "a".repeat(MAX_LINE);
        let err = parse_raw(format!("GET /{long} HTTP/1.1\r\n\r\n").into_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "line too long");
        let err =
            parse_raw(format!("GET / HTTP/1.1\r\nX: {long}\r\n\r\n").into_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "line too long");
        // An unterminated line is cut off at the cap, not buffered whole.
        let err = parse_raw(vec![b'a'; 4 * MAX_LINE]).unwrap_err();
        assert_eq!(err.to_string(), "line too long");
        // A line just under the cap is fine.
        let path = "a".repeat(MAX_LINE - "GET / HTTP/1.1\r\n".len());
        let req = parse_raw(format!("GET /{path} HTTP/1.1\r\n\r\n").into_bytes()).unwrap();
        assert_eq!(req.path.len(), path.len() + 1);
    }

    #[test]
    fn too_many_headers_rejected() {
        let headers = |n: usize| {
            let mut raw = String::from("GET /stats HTTP/1.1\r\n");
            for i in 0..n {
                raw.push_str(&format!("X-H{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            raw.into_bytes()
        };
        assert!(parse_raw(headers(MAX_HEADERS)).is_ok());
        let err = parse_raw(headers(MAX_HEADERS + 1)).unwrap_err();
        assert_eq!(err.to_string(), "too many headers");
    }
}
