//! A keep-alive HTTP/1.1 client for `repaird`, and the server's lifecycle
//! as the benchmark drives it: start, open the one session, shut down.

use cqa_server::{Json, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The bytes of one request as the client sends them.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Send prepared request bytes and read the reply: status and body.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<(u16, String)> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the reply head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("reply body is not UTF-8"))
    }

    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.send_bytes(&request_bytes(method, path, body))
    }
}

/// A running `repaird` with one open session.
pub struct Served {
    pub handle: ServerHandle,
    pub session: u64,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// `POST /shutdown`, then wait for the server's threads. Returns the
    /// `refused` count that `GET /health` reported just before.
    pub fn stop(self) -> Result<u64, String> {
        let mut conn = Conn::connect(self.addr()).map_err(|e| e.to_string())?;
        let (_, health) = conn.send("GET", "/health", "").map_err(|e| e.to_string())?;
        let refused = cqa_server::json::parse(&health)?
            .get("refused")
            .and_then(Json::as_u64)
            .ok_or("health reply has no `refused` count")?;
        conn.send("POST", "/shutdown", "")
            .map_err(|e| e.to_string())?;
        drop(conn);
        self.handle.join();
        Ok(refused)
    }
}

/// The `POST /sessions` body for a database and Σ in their text formats.
pub fn session_body(db_text: &str, sigma_text: &str) -> String {
    Json::obj([
        ("db", Json::str(db_text)),
        ("constraints", Json::str(sigma_text)),
    ])
    .to_string()
}

/// Open a session and run `warm` on the same connection; returns the
/// session id and the violation count the server reported.
fn open_session(
    conn: &mut Conn,
    session_body: &str,
    warm: &impl Fn(&mut Conn, u64) -> Result<(), String>,
) -> Result<(u64, Option<u64>), String> {
    let (status, reply) = conn
        .send("POST", "/sessions", session_body)
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("session creation answered {status}: {reply}"));
    }
    let reply = cqa_server::json::parse(&reply)?;
    let session = reply
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("session reply has no id")?;
    warm(conn, session)?;
    Ok((session, reply.get("violations").and_then(Json::as_u64)))
}

/// Start `repaird` on loopback, then open `times` sessions one after
/// another, each warmed by `warm` and each deleting the one before it.
/// Returns the server with its last session, the connection that opened
/// it, and the set-up time: the server's start plus the median time to
/// open and warm a session.
pub fn boot(
    times: usize,
    session_body: &str,
    warm: impl Fn(&mut Conn, u64) -> Result<(), String>,
) -> Result<(Served, Conn, f64), String> {
    let start = Instant::now();
    let handle = cqa_server::start(ServerConfig::default())?;
    let mut conn = Conn::connect(handle.addr()).map_err(|e| e.to_string())?;
    let start_s = start.elapsed().as_secs_f64();
    let mut seconds = Vec::new();
    let mut session = None;
    let mut violations = None;
    for _ in 0..times {
        let start = Instant::now();
        let (opened, found) = open_session(&mut conn, session_body, &warm)?;
        seconds.push(start.elapsed().as_secs_f64());
        // The same text must load to the same conflict state every time.
        if violations
            .replace(found)
            .is_some_and(|before| before != found)
        {
            return Err("repeated set-ups reported different violation counts".into());
        }
        if let Some(previous) = session.replace(opened) {
            let (status, reply) = conn
                .send("DELETE", &format!("/sessions/{previous}"), "")
                .map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("session deletion answered {status}: {reply}"));
            }
        }
    }
    let session = session.ok_or("no set-up ran")?;
    let setup_s = start_s + crate::stats::median(&seconds);
    Ok((Served { handle, session }, conn, setup_s))
}
