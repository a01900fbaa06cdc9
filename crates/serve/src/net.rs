//! Transport: JSON Lines over TCP (loopback) and a Unix domain socket.
//!
//! Pure `std::net` / `std::os::unix::net` — no async runtime, one thread
//! per connection (connections are few and long-lived; jobs, not sockets,
//! are the scarce resource). Both listeners serve the same [`Daemon`];
//! the bound endpoints are published in `<state_dir>/endpoint.json` so
//! clients and the chaos harness can find a daemon that bound port 0.
//!
//! A connection is a session: the client writes request lines, the server
//! answers each with one (or, for `stream`, many) response lines, in
//! order. The `shutdown` op drains the daemon, acknowledges, and releases
//! [`NetServer::wait`]; accept threads die with the process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::daemon::Daemon;

/// Where a running daemon is listening; serialized to
/// `<state_dir>/endpoint.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Endpoints {
    /// TCP address, e.g. `127.0.0.1:43651`.
    pub tcp: String,
    /// Unix socket path.
    pub sock: String,
    /// HTTP address of the Prometheus scrape listener (`GET /metrics`).
    /// `Option` so endpoint files from older daemons still parse.
    pub metrics: Option<String>,
}

impl Endpoints {
    /// Reads the endpoint file a daemon published under `state_dir`.
    pub fn load(state_dir: &Path) -> Result<Endpoints, String> {
        let path = state_dir.join("endpoint.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// The listening front end over a [`Daemon`].
pub struct NetServer {
    pub endpoints: Endpoints,
    shutdown_rx: Receiver<()>,
}

impl NetServer {
    /// Binds TCP (loopback, ephemeral port), the Unix socket
    /// `<state_dir>/serve.sock`, and an ephemeral scrape listener;
    /// publishes `endpoint.json`, and starts accepting.
    pub fn start(daemon: Arc<Daemon>, state_dir: &Path) -> Result<NetServer, String> {
        NetServer::start_with_metrics(daemon, state_dir, "127.0.0.1:0")
    }

    /// [`NetServer::start`] with an explicit scrape-listener address (the
    /// `serve --metrics-addr` flag — a fixed port for a real Prometheus
    /// scrape config).
    pub fn start_with_metrics(
        daemon: Arc<Daemon>,
        state_dir: &Path,
        metrics_addr: &str,
    ) -> Result<NetServer, String> {
        let tcp = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind tcp: {e}"))?;
        let tcp_addr: SocketAddr = tcp.local_addr().map_err(|e| e.to_string())?;
        let sock_path = state_dir.join("serve.sock");
        let _ = std::fs::remove_file(&sock_path); // stale socket from a kill -9
        let unix = UnixListener::bind(&sock_path)
            .map_err(|e| format!("bind {}: {e}", sock_path.display()))?;
        let scrape = TcpListener::bind(metrics_addr)
            .map_err(|e| format!("bind metrics {metrics_addr}: {e}"))?;
        let scrape_addr: SocketAddr = scrape.local_addr().map_err(|e| e.to_string())?;

        let endpoints = Endpoints {
            tcp: tcp_addr.to_string(),
            sock: sock_path.display().to_string(),
            metrics: Some(scrape_addr.to_string()),
        };
        write_endpoint_file(state_dir, &endpoints)?;

        let (shutdown_tx, shutdown_rx) = sync_channel(1);
        spawn_accept_loop("dfl-serve-tcp", daemon.clone(), shutdown_tx.clone(), move || {
            tcp.accept().ok().map(|(s, _)| Conn::Tcp(s))
        });
        spawn_accept_loop("dfl-serve-unix", daemon.clone(), shutdown_tx, move || {
            unix.accept().ok().map(|(s, _)| Conn::Unix(s))
        });
        spawn_metrics_loop(daemon, scrape);
        Ok(NetServer { endpoints, shutdown_rx })
    }

    /// Blocks until a client sends the `shutdown` op.
    pub fn wait(&self) {
        let _ = self.shutdown_rx.recv();
    }
}

fn write_endpoint_file(state_dir: &Path, ep: &Endpoints) -> Result<(), String> {
    let path = state_dir.join("endpoint.json");
    let tmp = path.with_extension("json.tmp");
    let json = serde_json::to_string(ep).map_err(|e| e.to_string())?;
    std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    Ok(())
}

/// A connection from either listener, unified behind one read/write pair.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn split(self) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        match self {
            Conn::Tcp(s) => {
                s.set_nodelay(true)?;
                let w = s.try_clone()?;
                Ok((Box::new(BufReader::new(s)), Box::new(w)))
            }
            Conn::Unix(s) => {
                let w = s.try_clone()?;
                Ok((Box::new(BufReader::new(s)), Box::new(w)))
            }
        }
    }
}

fn spawn_accept_loop(
    name: &str,
    daemon: Arc<Daemon>,
    shutdown_tx: SyncSender<()>,
    mut accept: impl FnMut() -> Option<Conn> + Send + 'static,
) {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            while let Some(conn) = accept() {
                let daemon = daemon.clone();
                let shutdown_tx = shutdown_tx.clone();
                let _ = std::thread::Builder::new()
                    .name("dfl-serve-conn".to_owned())
                    .spawn(move || serve_conn(conn, &daemon, &shutdown_tx));
            }
        })
        .expect("spawn accept loop");
}

/// The Prometheus scrape front end: one thread accepting, one short-lived
/// thread per HTTP exchange.
fn spawn_metrics_loop(daemon: Arc<Daemon>, listener: TcpListener) {
    std::thread::Builder::new()
        .name("dfl-serve-metrics".to_owned())
        .spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let daemon = daemon.clone();
                let _ = std::thread::Builder::new()
                    .name("dfl-serve-scrape".to_owned())
                    .spawn(move || serve_scrape(stream, &daemon));
            }
        })
        .expect("spawn metrics listener");
}

/// One HTTP exchange, hand-rolled over `std::net` (no HTTP dependency):
/// `GET /metrics` gets the Prometheus text page, anything else a 404. One
/// response per connection (`Connection: close`) — scrapers reconnect
/// every poll, which is the Prometheus norm.
fn serve_scrape(stream: TcpStream, daemon: &Daemon) {
    let Ok(read) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read);
    let mut writer = stream;
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the request headers; nothing in them changes the answer.
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
            Ok(0) => break,
            Ok(_) if h == "\r\n" || h == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, ctype, body) = if method == "GET" && path == "/metrics" {
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", daemon.prometheus())
    } else {
        ("404 Not Found", "text/plain; charset=utf-8", "only GET /metrics is served\n".to_owned())
    };
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

/// One client session: request line in, response line(s) out.
fn serve_conn(conn: Conn, daemon: &Daemon, shutdown_tx: &SyncSender<()>) {
    daemon.conn_opened();
    if let Ok((reader, mut writer)) = conn.split() {
        serve_lines(reader, &mut writer, daemon, shutdown_tx);
    }
    daemon.conn_closed();
}

/// The session loop over any line source and sink.
fn serve_lines(reader: impl BufRead, writer: &mut dyn Write, daemon: &Daemon, shutdown_tx: &SyncSender<()>) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut dead_client = false;
        let shutdown = daemon.handle_line(&line, &mut |resp_line| {
            if !dead_client {
                dead_client = send_line(writer, &resp_line).is_err();
            }
        });
        if shutdown {
            // Acknowledged already (the `ok` line above); release `wait`.
            let _ = shutdown_tx.try_send(());
            return;
        }
        if dead_client {
            return;
        }
    }
}

/// Sends `line` and its newline in one write. Two writes per line (what
/// `writeln!` on an unbuffered socket does) make the second wait out
/// Nagle's algorithm against the peer's delayed ACK, about 40 ms a line.
fn send_line(w: &mut dyn Write, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    w.write_all(buf.as_bytes())?;
    w.flush()
}

/// Minimal blocking client for the daemon: used by the CLI chaos driver,
/// the storm bench, and the tests. One connection, synchronous
/// request/response.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon's TCP endpoint (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Connects via the endpoint file a daemon published under `state_dir`.
    pub fn connect_dir(state_dir: &Path) -> Result<Client, String> {
        Client::connect(&Endpoints::load(state_dir)?.tcp)
    }

    /// Sends one request line and reads one response line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        send_line(&mut self.writer, line).map_err(|e| format!("send: {e}"))?;
        self.read_line()
    }

    /// Reads response lines until the job's terminal `{"type":"job",...}`
    /// line arrives (the `stream` op's contract), returning all lines.
    pub fn stream_to_end(&mut self, request_line: &str) -> Result<Vec<String>, String> {
        send_line(&mut self.writer, request_line).map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            let terminal = line.contains("\"type\":\"job\"") || line.contains("\"type\":\"error\"");
            lines.push(line);
            if terminal {
                return Ok(lines);
            }
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(line.trim_end().to_owned())
    }
}

/// The sock path a daemon binds under `state_dir` (for tests that probe
/// the Unix transport).
pub fn sock_path(state_dir: &Path) -> PathBuf {
    state_dir.join("serve.sock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;

    /// Keeps the bytes of every `write` call apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn assert_one_line_per_write(log: &WriteLog) {
        for w in &log.0 {
            let newlines = w.iter().filter(|&&b| b == b'\n').count();
            assert!(newlines == 1 && w.ends_with(b"\n"), "write is not one whole line: {:?}", String::from_utf8_lossy(w));
        }
    }

    #[test]
    fn every_response_line_is_one_write() {
        let dir = std::env::temp_dir().join(format!("dfl-serve-net-writes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig::new(&dir);
        cfg.health_poll_ms = 0;
        let daemon = Daemon::start(cfg).unwrap();
        let requests = [
            r#"{"op":"ping"}"#,
            r#"{"op":"submit","workflow":"smoke"}"#,
            r#"{"op":"stream","job":0}"#,
            r#"{"op":"stats"}"#,
            "not json",
            r#"{"op":"shutdown"}"#,
        ]
        .join("\n");
        let (tx, rx) = sync_channel(1);
        let mut log = WriteLog::default();
        serve_lines(requests.as_bytes(), &mut log, &daemon, &tx);
        assert!(rx.try_recv().is_ok(), "shutdown released");
        // ping, accepted, stream windows + terminal line, stats, error, ok.
        assert!(log.0.len() >= 6, "{} writes", log.0.len());
        assert_one_line_per_write(&log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_requests_are_one_write() {
        let mut log = WriteLog::default();
        send_line(&mut log, r#"{"op":"ping"}"#).unwrap();
        send_line(&mut log, "").unwrap();
        assert_eq!(log.0, [b"{\"op\":\"ping\"}\n".to_vec(), b"\n".to_vec()]);
    }
}
