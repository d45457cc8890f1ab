//! Shared helpers for the daemon's integration tests: unique socket
//! paths, a tiny blocking line-oriented client, and MiniC programs with
//! known runtimes (the slow one never exits on its own, so its runtime
//! is exactly the requested skip+window).

#![allow(dead_code)]

use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use instrep_core::service::{Request, Response};

/// A program that runs ~1e9 instructions if left alone; pair it with a
/// `window` override to get a request of precisely known length.
pub const SLOW_SOURCE: &str =
    "int main() { int i; int s = 0; for (i = 0; i < 100000000; i++) s = s + i; return 0; }";

/// A program that exits almost immediately, with a recognizable code.
pub const FAST_SOURCE: &str = "int main() { return 7; }";

/// A unique abstract-enough socket path per test.
pub fn socket_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("instrep-{tag}-{}-{n}.sock", std::process::id()))
}

/// A unique scratch directory per test.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("instrep-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Minimal blocking client speaking the newline-delimited contract.
pub struct Client {
    stream: UnixStream,
    carry: Vec<u8>,
}

impl Client {
    pub fn connect(socket: &Path) -> Client {
        // The server binds before `start` returns, but give a spawned
        // thread's first connect a little slack anyway.
        for _ in 0..50 {
            match UnixStream::connect(socket) {
                Ok(stream) => return Client { stream, carry: Vec::new() },
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("could not connect to {}", socket.display());
    }

    pub fn send_line(&mut self, line: &str) {
        self.try_send_line(line).unwrap();
    }

    /// Sends one line, newline included, in one write; fails once the
    /// server has stopped reading.
    pub fn try_send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Half-closes the connection: the server sees EOF after the lines
    /// already sent, and replies can still be read.
    pub fn shutdown_write(&self) {
        self.stream.shutdown(Shutdown::Write).unwrap();
    }

    /// Reads one response line; `None` means the server closed the
    /// connection.
    pub fn recv_line(&mut self) -> Option<String> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(pos) = self.carry.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.carry.drain(..=pos).collect();
                line.pop();
                return Some(String::from_utf8(line).expect("response is UTF-8"));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.carry.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// One request, one decoded response.
    pub fn roundtrip(&mut self, req: &Request) -> Response {
        self.send_line(&req.encode());
        let line = self.recv_line().expect("server closed without replying");
        Response::decode(&line).expect("response line decodes")
    }
}
