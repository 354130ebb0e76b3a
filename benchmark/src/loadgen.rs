//! The benchmark's own HTTP load generator: an open loop that paces
//! requests on a schedule and a closed loop of back-to-back clients. It is
//! a copy by design: edits to `crates/bench` must not change what is
//! measured here.
//!
//! Open loop: request `i` is due at `start + i / rate`, on connection
//! `i % conns`, whether or not earlier requests have finished. Its latency
//! runs **from its due time**, so the wait a stall imposes on the requests
//! queued behind it is counted. How late the generator itself ran (the send
//! time past the later of the due time and the moment the connection came
//! free) is reported separately: that part is the harness's fault, not the
//! server's.
//!
//! Reader threads spin until a request is due instead of sleeping: a sleeping
//! thread is woken tens of microseconds late, and that lateness would be
//! counted as latency. The load generator's threads run on processors of
//! their own (`cpus`, see [`crate::affinity`]), so the spinning takes
//! nothing from the server.
//!
//! Every planned request is counted exactly once, as completed or failed.
//! A non-200 status, an I/O error, or a 200 whose body says
//! `"degraded":true` is a failure and contributes no latency sample.

use crate::affinity;
use crate::trace::{Trace, ROOT};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The bytes of one HTTP/1.1 request, ready to write to a socket.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the response already
    /// handed out; dropped at the next round trip.
    consumed: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the driver's
        // time limit.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(8192), consumed: 0 })
    }

    /// Send one request and read its response: `(status, body)`.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("content-length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        self.consumed = body_start + length;
        Ok((status, &self.buf[body_start..body_start + length]))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Whether a response counts as served: a 200 that is not degraded.
pub fn served(status: u16, body: &[u8]) -> bool {
    const DEGRADED: &[u8] = b"\"degraded\":true";
    status == 200 && !body.windows(DEGRADED.len()).any(|w| w == DEGRADED)
}

/// A paced stream of queries, optionally beside one writer connection.
pub struct OpenLoop<'a> {
    pub addr: SocketAddr,
    /// Pre-generated request bytes, cycled from `first`.
    pub requests: &'a [Vec<u8>],
    pub first: usize,
    pub rate: f64,
    pub conns: usize,
    pub duration: Duration,
    /// Requests posted on a connection of their own, one per `period`,
    /// the first half a period in so that it does not coincide with the
    /// phase's start.
    pub writes: &'a [Vec<u8>],
    pub write_period: Duration,
    /// Record a `request` span per query, numbered from `first`.
    pub trace: bool,
    pub epoch: Instant,
    /// The processors the load generator's threads run on.
    pub cpus: &'a [usize],
}

#[derive(Debug)]
pub struct LoadResult {
    pub attempted: usize,
    pub failed: usize,
    /// One per served query, in microseconds.
    pub latencies_us: Vec<f64>,
    /// One per query sent: how late the generator itself was, microseconds.
    pub late_us: Vec<f64>,
    /// One per served write, in milliseconds, from send to response.
    pub write_ms: Vec<f64>,
    pub writes_failed: usize,
    /// From the start to the last query's completion.
    pub wall_s: f64,
    pub trace: Trace,
}

impl LoadResult {
    fn empty(epoch: Instant, trace: bool) -> Self {
        LoadResult {
            attempted: 0,
            failed: 0,
            latencies_us: Vec::new(),
            late_us: Vec::new(),
            write_ms: Vec::new(),
            writes_failed: 0,
            wall_s: 0.0,
            trace: Trace::new(trace, epoch),
        }
    }

    fn merge(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.late_us.extend(other.late_us);
        self.write_ms.extend(other.write_ms);
        self.writes_failed += other.writes_failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.trace.absorb(other.trace);
    }

    pub fn completed(&self) -> usize {
        self.latencies_us.len()
    }
}

fn spin_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

impl OpenLoop<'_> {
    /// Run the schedule to its end and collect what happened.
    pub fn run(&self) -> LoadResult {
        let planned = (self.rate * self.duration.as_secs_f64()).round() as usize;
        let conns = self.conns.max(1);
        let start = Instant::now();
        let mut total = LoadResult::empty(self.epoch, self.trace);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..conns)
                .map(|conn| scope.spawn(move || self.drive_reader(start, conn, conns, planned)))
                .collect();
            let writer =
                (!self.writes.is_empty()).then(|| scope.spawn(move || self.drive_writer(start)));
            for handle in readers.into_iter().chain(writer) {
                total.merge(handle.join().expect("load thread panicked"));
            }
        });
        assert_eq!(
            total.completed() + total.failed,
            planned,
            "every planned request is counted exactly once"
        );
        total
    }

    fn drive_reader(
        &self,
        start: Instant,
        conn: usize,
        conns: usize,
        planned: usize,
    ) -> LoadResult {
        affinity::pin(self.cpus);
        let mut out = LoadResult::empty(self.epoch, self.trace);
        let mine = (conn..planned).step_by(conns);
        out.attempted = mine.len();
        let mut link = Conn::connect(self.addr).ok();
        let mut free_at = start;
        for i in mine {
            let Some(open) = link.as_mut() else {
                out.failed += 1;
                continue;
            };
            let due = start + Duration::from_secs_f64(i as f64 / self.rate);
            spin_until(due);
            let sent = Instant::now();
            out.late_us.push((sent - due.max(free_at)).as_nanos() as f64 / 1e3);
            let index = self.first + i;
            let request = &self.requests[index % self.requests.len()];
            match open.roundtrip(request) {
                Ok((status, body)) if served(status, body) => {
                    let done = Instant::now();
                    out.latencies_us.push((done - due).as_nanos() as f64 / 1e3);
                    out.trace.record(
                        ROOT,
                        index as u64,
                        "request",
                        (sent - self.epoch).as_nanos() as u64,
                        (done - self.epoch).as_nanos() as u64,
                    );
                    out.wall_s = (done - start).as_secs_f64();
                }
                Ok(_) => out.failed += 1,
                Err(_) => {
                    out.failed += 1;
                    link = Conn::connect(self.addr).ok();
                }
            }
            free_at = Instant::now();
        }
        out
    }

    fn drive_writer(&self, start: Instant) -> LoadResult {
        affinity::pin(self.cpus);
        let mut out = LoadResult::empty(self.epoch, false);
        let Ok(mut link) = Conn::connect(self.addr) else {
            out.writes_failed = self.writes.len();
            return out;
        };
        for (k, write) in self.writes.iter().enumerate() {
            let due = start + self.write_period.mul_f64(k as f64 + 0.5);
            if due - start >= self.duration {
                break;
            }
            sleep_until(due);
            let sent = Instant::now();
            match link.roundtrip(write) {
                Ok((200, _)) => out.write_ms.push(sent.elapsed().as_nanos() as f64 / 1e6),
                _ => out.writes_failed += 1,
            }
        }
        out
    }
}

/// `clients` connections, each sending its next request as soon as the
/// previous one is answered, until `duration` has passed. Client `c` walks
/// the request pool from `first + c`, `clients` apart.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    first: usize,
    clients: usize,
    duration: Duration,
    cpus: &[usize],
) -> LoadResult {
    let start = Instant::now();
    let mut total = LoadResult::empty(start, false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|client| {
                scope.spawn(move || {
                    affinity::pin(cpus);
                    let mut out = LoadResult::empty(start, false);
                    let mut link = Conn::connect(addr).ok();
                    let mut index = first + client;
                    while start.elapsed() < duration {
                        out.attempted += 1;
                        let Some(open) = link.as_mut() else {
                            out.failed += 1;
                            break;
                        };
                        let sent = Instant::now();
                        match open.roundtrip(&requests[index % requests.len()]) {
                            Ok((status, body)) if served(status, body) => {
                                out.latencies_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                                out.wall_s = start.elapsed().as_secs_f64();
                            }
                            Ok(_) => out.failed += 1,
                            Err(_) => {
                                out.failed += 1;
                                link = Conn::connect(addr).ok();
                            }
                        }
                        index += clients;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load thread panicked"));
        }
    });
    assert_eq!(total.completed() + total.failed, total.attempted);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers every request on every connection with the
    /// next canned `(status, body)`, cycling.
    fn canned_server(replies: Vec<(u16, &'static str)>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let replies = replies.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let mut chunk = [0u8; 1024];
                    let mut served = 0usize;
                    loop {
                        // Requests in these tests have no body beyond "{}".
                        while let Some(pos) = seen.windows(6).position(|w| w == b"\r\n\r\n{}") {
                            seen.drain(..pos + 6);
                            let (status, body) = replies[served % replies.len()];
                            served += 1;
                            let reply = format!(
                                "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            if stream.write_all(reply.as_bytes()).is_err() {
                                return;
                            }
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => seen.extend_from_slice(&chunk[..n]),
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn keep_alive_round_trips_return_each_body_once() {
        let addr = canned_server(vec![(200, "{\"a\":1}"), (409, "{\"error\":\"x\"}")]);
        let mut conn = Conn::connect(addr).unwrap();
        let request = http_request("POST", "/query", "{}");
        let (status, body) = conn.roundtrip(&request).unwrap();
        assert_eq!((status, body), (200, &b"{\"a\":1}"[..]));
        let (status, body) = conn.roundtrip(&request).unwrap();
        assert_eq!((status, body), (409, &b"{\"error\":\"x\"}"[..]));
    }

    #[test]
    fn degraded_and_non_200_answers_are_failures() {
        assert!(served(200, b"{\"degraded\":false}"));
        assert!(!served(200, b"{\"seeker\":1,\"degraded\":true}"));
        assert!(!served(500, b"{}"));
    }

    #[test]
    fn open_loop_counts_every_planned_request_once() {
        // Every third answer is degraded, so a third of the plan fails.
        let addr = canned_server(vec![(200, "{}"), (200, "{}"), (200, "{\"degraded\":true}")]);
        let requests = vec![http_request("POST", "/query", "{}")];
        let result = OpenLoop {
            addr,
            requests: &requests,
            first: 0,
            rate: 3000.0,
            conns: 1,
            duration: Duration::from_millis(100),
            writes: &[],
            write_period: Duration::from_secs(1),
            trace: true,
            epoch: Instant::now(),
            cpus: &[],
        }
        .run();
        assert_eq!(result.attempted, 300);
        assert_eq!(result.failed, 100);
        assert_eq!(result.completed(), 200);
        assert_eq!(result.late_us.len(), 300);
        assert_eq!(result.trace.spans().len(), 200, "one root span per served request");
    }

    #[test]
    fn closed_loop_accounts_for_every_attempt_and_a_dead_server_fails_them() {
        let addr = canned_server(vec![(200, "{}")]);
        let requests = vec![http_request("POST", "/query", "{}")];
        let result = closed_loop(addr, &requests, 0, 2, Duration::from_millis(50), &[]);
        assert!(result.completed() > 0);
        assert_eq!(result.failed, 0);

        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let result = closed_loop(dead, &requests, 0, 1, Duration::from_millis(20), &[]);
        assert_eq!(result.completed(), 0);
        assert!(result.failed >= 1);
    }
}
