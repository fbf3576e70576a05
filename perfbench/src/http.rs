//! A one-request-per-connection HTTP/1.1 client for `cod serve`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends `GET path` with `Connection: close` and reads until the server
/// closes, so the call returns at the response's last byte.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Splits a raw response into status and body.
pub fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    Ok(Reply {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let r = parse_reply(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\nbusy\n")
            .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"busy\n");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_reply(b"garbage\r\n\r\n").is_err());
    }
}
