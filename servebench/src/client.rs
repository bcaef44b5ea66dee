//! A minimal HTTP/1.1 keep-alive client over one loopback connection:
//! just enough framing for the demo server's responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
    /// Bytes on the wire: head plus body.
    pub wire_bytes: usize,
}

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { reader: BufReader::with_capacity(1 << 16, s.try_clone()?), writer: s })
    }

    /// Sends one request (already rendered) and reads its response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        self.writer.write_all(request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let mut wire = 0;
        wire += self.reader.read_line(&mut line)?;
        let status: u16 =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status {line:?}"))
            })?;
        let mut length = 0usize;
        let mut etag = None;
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            wire += n;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("etag") {
                    etag = Some(value.trim().to_string());
                }
            }
        }
        // A 304 carries no body and no Content-Length.
        let mut body = vec![0u8; if status == 304 { 0 } else { length }];
        self.reader.read_exact(&mut body)?;
        wire += body.len();
        Ok(Response { status, etag, body, wire_bytes: wire })
    }
}

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The query string identifying a requester.
pub fn who(user: Option<&str>, ip: &str, host: &str) -> String {
    let mut q = String::new();
    if let Some(u) = user {
        q.push_str(&format!("user={u}&pass={}&", secret(u)));
    }
    q.push_str(&format!("ip={ip}&host={host}"));
    q
}

/// The shared secret registered for `user`.
pub fn secret(user: &str) -> String {
    format!("{user}-pw")
}

/// `GET /<uri>?<who>[&q=…]`, optionally conditional.
pub fn get(uri: &str, who: &str, query: Option<&str>, if_none_match: Option<&str>) -> Vec<u8> {
    let mut target = format!("/{uri}?{who}");
    if let Some(q) = query {
        target.push_str("&q=");
        target.push_str(&percent_encode(q));
    }
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n");
    if let Some(tag) = if_none_match {
        req.push_str(&format!("If-None-Match: {tag}\r\n"));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// `POST /update?doc=<uri>&<who>` with an op-batch body.
pub fn post_update(uri: &str, who: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /update?doc={uri}&{who} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn metrics() -> Vec<u8> {
    b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec()
}
