//! The benchmark's HTTP/1.1 client.
//!
//! It does what the protocol says rather than what today's server does,
//! so that a server-side change (keep-alive, ROADMAP 3a) is measured by
//! unchanged benchmark code: the response is read by `Content-Length`,
//! the socket is reused unless the server says `Connection: close`, and
//! a reused socket that turns out to be stale is replaced once.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Renders a whole request, head and body, into one buffer so that it
/// leaves in one `write_all` (one segment for small requests).
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Why one attempt on one socket failed.
enum Failure {
    /// Not one response byte arrived: on a reused socket this is the
    /// server having closed it while idle, and a retry is safe to try.
    NoResponse(io::Error),
    /// The response started and then broke.
    Broken(io::Error),
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    /// Kept between requests only while the server allows reuse.
    stream: Option<TcpStream>,
    /// Stale reused sockets replaced by a fresh connection.
    pub reconnects: u64,
    read_timeout: Duration,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            reconnects: 0,
            // Deadlines are the server's job; this only unsticks a hung run.
            read_timeout: Duration::from_secs(30),
        }
    }

    /// Sends one pre-rendered request and reads the whole response.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if let Some(reused) = self.stream.take() {
            match self.attempt(reused, wire) {
                Ok(reply) => return Ok(reply),
                Err(Failure::NoResponse(_)) => self.reconnects += 1,
                Err(Failure::Broken(e)) => return Err(e),
            }
        }
        let fresh = TcpStream::connect(self.addr)?;
        fresh.set_nodelay(true)?;
        fresh.set_read_timeout(Some(self.read_timeout))?;
        self.attempt(fresh, wire).map_err(|failure| match failure {
            Failure::NoResponse(e) | Failure::Broken(e) => e,
        })
    }

    fn attempt(&mut self, mut stream: TcpStream, wire: &[u8]) -> Result<Reply, Failure> {
        stream.write_all(wire).map_err(Failure::NoResponse)?;

        let mut raw = Vec::with_capacity(1024);
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            match stream.read(&mut chunk) {
                Ok(0) if raw.is_empty() => {
                    return Err(Failure::NoResponse(io::ErrorKind::UnexpectedEof.into()))
                }
                Ok(0) => return Err(Failure::Broken(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) if raw.is_empty() => return Err(Failure::NoResponse(e)),
                Err(e) => return Err(Failure::Broken(e)),
            }
        };

        let (status, content_length, mut close) = parse_head(&raw[..head_end])?;

        let mut body = raw.split_off(head_end);
        match content_length {
            Some(len) => {
                let have = body.len();
                body.resize(len.max(have), 0);
                stream
                    .read_exact(&mut body[have..])
                    .map_err(Failure::Broken)?;
                body.truncate(len);
            }
            None => {
                // No length: the body runs to the end of the connection.
                close = true;
                stream.read_to_end(&mut body).map_err(Failure::Broken)?;
            }
        }
        if !close {
            self.stream = Some(stream);
        }
        // Otherwise `stream` drops here: the server waits for our close
        // before it frees the worker, so close now, not at the next request.
        Ok(Reply { status, body })
    }
}

/// Status code, `Content-Length`, and whether the server asked to close.
fn parse_head(head: &[u8]) -> Result<(u16, Option<usize>, bool), Failure> {
    let head = std::str::from_utf8(head).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let mut status_line = lines.next().unwrap_or("").split(' ');
    let version = status_line.next().unwrap_or("");
    let status: u16 = status_line
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let mut content_length = None;
    let mut close = version != "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            let len = value.trim().parse::<usize>();
            content_length = Some(len.map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    Ok((status, content_length, close))
}

fn bad(what: &str) -> Failure {
    Failure::Broken(io::Error::new(io::ErrorKind::InvalidData, what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_serve::http::read_request;
    use sketches_serve::Limits;
    use std::net::TcpListener;

    fn respond(stream: &mut TcpStream, extra_header: &str) {
        let req = read_request(stream, &Limits::default()).unwrap();
        let body = format!("{} {}", req.method, String::from_utf8_lossy(&req.body));
        stream
            .write_all(
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{extra_header}\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
    }

    #[test]
    fn closing_server_gets_one_connection_per_request_closed_promptly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                respond(&mut stream, "Connection: close\r\n");
                // Like the product's `finish_connection`: wait for the
                // client's close. A client that held the socket open would
                // hang this thread and fail the test by timeout.
                let mut rest = Vec::new();
                stream.read_to_end(&mut rest).unwrap();
                assert!(rest.is_empty());
            }
        });
        let mut client = Client::new(addr);
        client.read_timeout = Duration::from_secs(5);
        for i in 0..3 {
            let body = format!("ping{i}");
            let reply = client
                .exchange(&request_bytes("POST", "/x", body.as_bytes()))
                .unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, format!("POST {body}").into_bytes());
        }
        server.join().unwrap();
        assert_eq!(client.reconnects, 0);
    }

    #[test]
    fn keep_alive_server_is_reused_and_a_stale_socket_is_replaced_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: three requests, then an idle close.
            let (mut first, _) = listener.accept().unwrap();
            for _ in 0..3 {
                respond(&mut first, "");
            }
            drop(first);
            // The retry arrives on a second connection.
            let (mut second, _) = listener.accept().unwrap();
            respond(&mut second, "");
        });
        let mut client = Client::new(addr);
        client.read_timeout = Duration::from_secs(5);
        for i in 0..4 {
            let reply = client.exchange(&request_bytes("GET", "/y", b"")).unwrap();
            assert_eq!((reply.status, reply.body), (200, b"GET ".to_vec()));
            let expected = u64::from(i == 3);
            assert_eq!(client.reconnects, expected, "after request {i}");
        }
        server.join().unwrap();
    }
}
