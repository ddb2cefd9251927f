//! The daemon under test and the closed-loop clients that drive it over
//! loopback TCP.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use robopt::Optimizer;

use crate::gen::{Req, Stream, Workload};

/// The daemon under test: this benchmark's own executable started with
/// `--daemon`, which runs `robopt serve`'s accept loop
/// (`robopt_cli::serve_on_listener`) over a port-0 loopback listener. It
/// prints the port it bound, and its peak resident memory when it exits.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    child: Option<Child>,
    out: BufReader<ChildStdout>,
    /// Held open while the daemon should live; see [`daemon_main`].
    _lifeline: Option<ChildStdin>,
}

/// The `--daemon` mode: what `robopt serve --tcp` does, on the port the
/// kernel picks. Returns the process exit code.
pub fn daemon_main() -> i32 {
    // Exit as soon as the benchmark that started this daemon is gone (its
    // end of our stdin closes), so a killed run leaves no daemon behind.
    // The thread is never joined: all it can do is end the process.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    let mut opt = Optimizer::named();
    let listener = match TcpListener::bind(("127.0.0.1", 0)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("daemon: cannot bind: {e}");
            return 1;
        }
    };
    let port = match listener.local_addr() {
        Ok(a) => a.port(),
        Err(e) => {
            eprintln!("daemon: no local address: {e}");
            return 1;
        }
    };
    let mut out = io::stdout();
    if writeln!(out, "{port}").and_then(|()| out.flush()).is_err() {
        return 1;
    }
    let code = robopt_cli::serve_on_listener(&mut opt, &listener);
    // The daemon's own high-water mark: a parent's view of its children
    // would also count whatever the parent had reaped before it exec'd
    // (`cargo run` reaps its compilers, then execs the benchmark).
    let _ = writeln!(out, "{}", peak_rss_kib()).and_then(|()| out.flush());
    code
}

impl Daemon {
    pub fn start() -> io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let out = child.stdout.take().map(BufReader::new);
        let port = out.and_then(|mut out| {
            out.read_line(&mut line).ok()?;
            Some((line.trim().parse::<u16>().ok()?, out))
        });
        let Some((port, out)) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not report its port: {line:?}"
            )));
        };
        Ok(Daemon {
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            out,
            _lifeline: child.stdin.take(),
            child: Some(child),
        })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(self.addr)
    }

    /// Send `quit` on a fresh connection, wait for the process to exit,
    /// and return its peak resident memory in MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        let ack = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"quit\"}"))
            .map_err(|e| format!("quit failed: {e}"))?;
        if !ack.response.contains("\"quit\"") {
            return Err(format!("unexpected quit ack {:?}", ack.response));
        }
        let mut line = String::new();
        let peak_kib = self
            .out
            .read_line(&mut line)
            .ok()
            .and(line.trim().parse::<f64>().ok());
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        match child.wait() {
            Ok(status) if status.success() => peak_kib
                .map(|kib| kib / 1024.0)
                .ok_or_else(|| format!("daemon did not report its peak memory: {line:?}")),
            Ok(status) => Err(format!("daemon exited with {status}")),
            Err(e) => Err(format!("cannot wait for the daemon: {e}")),
        }
    }
}

impl Drop for Daemon {
    /// A daemon not stopped cleanly is killed and reaped, so the benchmark
    /// never leaves a process behind.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: a request line out, a response line back.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

/// One round trip as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub response: String,
    pub sent: Instant,
    pub done: Instant,
}

/// How long a client waits for one response before it gives up on the
/// daemon (the process must end within its time limit).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            out: Vec::new(),
        })
    }

    /// Write `line` plus its newline in one write, then read one response
    /// line (returned without its newline).
    pub fn call(&mut self, line: &str) -> io::Result<Exchange> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let sent = Instant::now();
        self.writer.write_all(&self.out)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        let done = Instant::now();
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if response.ends_with('\n') {
            response.pop();
        }
        Ok(Exchange {
            response,
            sent,
            done,
        })
    }
}

/// A timed request and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    pub req: Arc<Req>,
    /// Client connection that sent it.
    pub conn: usize,
    /// First request of its connection.
    pub first: bool,
    /// Offsets from the start of the timed loop.
    pub sent_ns: u64,
    pub done_ns: u64,
    /// `None` when the exchange failed at the transport.
    pub response: Option<Arc<str>>,
}

/// The last response line seen per request (keyed by the shared request's
/// address), so the repeats of a request that got the same bytes share one
/// string and a long run of cache hits stays small in memory.
#[derive(Debug, Default)]
struct Seen(HashMap<*const Req, Arc<str>>);

impl Seen {
    fn intern(&mut self, req: &Arc<Req>, response: String) -> Arc<str> {
        let key = Arc::as_ptr(req);
        match self.0.get(&key) {
            Some(prev) if **prev == *response => Arc::clone(prev),
            _ => {
                let line: Arc<str> = Arc::from(response);
                self.0.insert(key, Arc::clone(&line));
                line
            }
        }
    }
}

impl Record {
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }
}

/// Result of the timed closed loop.
#[derive(Debug)]
pub struct Timed {
    pub records: Vec<Record>,
    /// From the loop's start to its last response.
    pub wall_ns: u64,
}

fn offset(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

fn exchange(
    conn: &mut Conn,
    seen: &mut Seen,
    req: Arc<Req>,
    t0: Instant,
    conn_id: usize,
    first: bool,
) -> (Record, bool) {
    match conn.call(&req.line) {
        Ok(x) => (
            Record {
                response: Some(seen.intern(&req, x.response)),
                req,
                conn: conn_id,
                first,
                sent_ns: offset(t0, x.sent),
                done_ns: offset(t0, x.done),
            },
            true,
        ),
        Err(_) => {
            let now = offset(t0, Instant::now());
            (
                Record {
                    req,
                    conn: conn_id,
                    first,
                    sent_ns: now,
                    done_ns: now,
                    response: None,
                },
                false,
            )
        }
    }
}

/// `cold_2c`: the connections open in order, so the daemon accepts them
/// in that order; then each sends its own list until the deadline and
/// closes. A connection the daemon has not accepted yet waits for its
/// first response until the others close, so its read timeout covers the
/// whole run.
pub fn run_connections(
    daemon: &Daemon,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Timed, String> {
    let mut conns = Vec::new();
    for _ in 0..workload.connections() {
        let conn = daemon
            .connect()
            .map_err(|e| format!("cannot connect: {e}"))?;
        conn.writer
            .set_read_timeout(Some(READ_TIMEOUT + Duration::from_secs_f64(seconds)))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        conns.push(conn);
    }
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let mut stream = Stream::for_connection(workload, seed, c);
                    let mut out = Vec::new();
                    let mut seen = Seen::default();
                    while Instant::now() < deadline {
                        let first = out.is_empty();
                        let (rec, ok) = exchange(&mut conn, &mut seen, stream.next(), t0, c, first);
                        out.push(rec);
                        if !ok {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Ok(finish(per_conn.into_iter().flatten().collect()))
}

/// `hot_1c` and `learned_mix`: the set-up connection sends the stream
/// until the deadline.
pub fn run_single(conn: &mut Conn, stream: &mut Stream, seconds: f64) -> Timed {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    let mut seen = Seen::default();
    while Instant::now() < deadline {
        let (rec, ok) = exchange(conn, &mut seen, stream.next(), t0, 0, false);
        records.push(rec);
        if !ok {
            break;
        }
    }
    finish(records)
}

/// Order records by completion, which is the daemon's processing order
/// while it serves one connection at a time.
fn finish(mut records: Vec<Record>) -> Timed {
    records.sort_by_key(|r| (r.done_ns, r.conn));
    let wall_ns = records.iter().map(|r| r.done_ns).max().unwrap_or(0);
    Timed { records, wall_ns }
}

/// Peak resident set size of this process in KiB (`getrusage`).
fn peak_rss_kib() -> i64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and the pointer is to
    // a live, writable value of that type for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return -1;
    }
    usage.maxrss
}
