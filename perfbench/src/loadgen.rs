//! The closed-loop load generator: one thread, two keep-alive connections, HTTP
//! pipelining, a fixed number of requests outstanding.
//!
//! The generator issues a new request the moment a reply frees a slot, so the
//! system is never offered more than `outstanding` requests and a slow server
//! simply receives less load (a closed loop). Each request is timed from the
//! moment its bytes are queued on a connection to the moment its reply is fully
//! parsed. Replies are matched to requests in order per connection.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use vitality_serve::http::{HttpParser, ParseStatus};

use crate::workload::Req;
use crate::Checked;

/// Connections per generator: two, one per core of the two-core reference host,
/// and never more than the host has cores.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// How long a phase may spend draining its outstanding replies after its clock
/// runs out before the rest count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Largest reply body accepted.
const MAX_REPLY_BYTES: usize = 16 * 1024 * 1024;

/// What the caller learns from one checked reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyInfo {
    /// The reply's `queue_us` (saturating).
    pub queue_us: u32,
    /// The reply's `batch_size`.
    pub batch_size: u64,
    /// The gateway's `cached` flag (`None` from an engine).
    pub cached: Option<bool>,
}

/// One phase's outcome. Per successful request it keeps a latency and a variant
/// (and a queue wait where the engine batched it); see [`PhaseResult::with_room`]
/// for keeping those records out of the process's peak RSS.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed: non-200, transport error, or a wrong reply.
    pub failed: u64,
    /// Wall seconds from the first send until the last reply (drain included).
    pub wall_s: f64,
    /// Milliseconds from send to checked reply of every successful request.
    pub latencies_ms: Vec<f32>,
    /// The variant index of the same requests.
    pub variants: Vec<u8>,
    /// Successful replies the gateway served from its cache.
    pub cache_hits: u64,
    /// `queue_us` of every successful reply that went through an engine batch
    /// (a cache hit carries a stale one).
    pub queue_us: Vec<u32>,
    /// Sum of `batch_size` over the same replies.
    pub batch_size_sum: u64,
}

impl PhaseResult {
    /// An empty result whose latency and variant records for `room` requests
    /// are allocated and written now, so that recording up to that many later
    /// never grows the process.
    pub fn with_room(room: usize) -> Self {
        let mut result = Self {
            latencies_ms: vec![1.0; room],
            variants: vec![1; room],
            ..Self::default()
        };
        std::hint::black_box(&mut result);
        result.latencies_ms.clear();
        result.variants.clear();
        result
    }

    /// Successful replies.
    pub fn succeeded(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn record(&mut self, variant: usize, latency_ms: f32, info: ReplyInfo) {
        self.latencies_ms.push(latency_ms);
        self.variants
            .push(u8::try_from(variant).expect("under 256 variants"));
        if info.cached == Some(true) {
            self.cache_hits += 1;
        } else {
            self.queue_us.push(info.queue_us);
            self.batch_size_sum += info.batch_size;
        }
    }

    /// Adds another slice of the same phase to this one.
    pub fn absorb(&mut self, other: &PhaseResult) {
        self.sent += other.sent;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.variants.extend_from_slice(&other.variants);
        self.cache_hits += other.cache_hits;
        self.queue_us.extend_from_slice(&other.queue_us);
        self.batch_size_sum += other.batch_size_sum;
    }

    /// Latencies, ascending, with every failed request as an infinite one: a
    /// failure misses every latency limit.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> = self.latencies_ms.iter().map(|&ms| f64::from(ms)).collect();
        latencies.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        latencies.sort_by(f64::total_cmp);
        latencies
    }
}

struct InFlight {
    req: Req,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    wire: Vec<u8>,
    written: usize,
    parser: HttpParser,
    in_flight: VecDeque<InFlight>,
    writable_armed: bool,
}

impl Conn {
    fn open(addr: SocketAddr, poll: &Poll, token: Token) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poll.register(&stream, token, Interest::READABLE)?;
        Ok(Self {
            stream,
            wire: Vec::new(),
            written: 0,
            parser: HttpParser::new(),
            in_flight: VecDeque::new(),
            writable_armed: false,
        })
    }

    /// Writes as much of the pending bytes as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.wire.len() {
            match self.stream.write(&self.wire[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.wire.len() {
            self.wire.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// Arms write readiness exactly while bytes are pending (epoll is
    /// level-triggered, so an always-armed writable socket would spin).
    fn arm(&mut self, poll: &Poll, token: Token) -> io::Result<()> {
        let want = !self.wire.is_empty();
        if want != self.writable_armed {
            let interest = if want {
                Interest::READABLE.add(Interest::WRITABLE)
            } else {
                Interest::READABLE
            };
            poll.reregister(&self.stream, token, interest)?;
            self.writable_armed = want;
        }
        Ok(())
    }
}

/// The generator's two keep-alive connections to one server.
pub struct LoadGen {
    addr: SocketAddr,
    poll: Poll,
    events: Events,
    conns: Vec<Conn>,
    next_conn: usize,
}

impl LoadGen {
    /// Opens the connections.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let poll = Poll::new()?;
        let conns = (0..connections())
            .map(|i| Conn::open(addr, &poll, Token(i)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            addr,
            poll,
            events: Events::with_capacity(16),
            conns,
            next_conn: 0,
        })
    }

    /// Runs one closed-loop phase into `result` (empty): keeps `outstanding`
    /// requests in flight until `duration` has passed or `max_requests` were
    /// sent, then drains.
    pub fn run(
        &mut self,
        traffic: &mut Checked<'_>,
        outstanding: usize,
        duration: Duration,
        max_requests: u64,
        mut result: PhaseResult,
    ) -> PhaseResult {
        let started = Instant::now();
        let stop_issuing = started + duration;
        let mut buf = vec![0u8; 256 * 1024];
        loop {
            let now = Instant::now();
            let issuing = now < stop_issuing && result.sent < max_requests;
            let in_flight: usize = self.conns.iter().map(|c| c.in_flight.len()).sum();
            if issuing && in_flight < outstanding {
                for _ in in_flight..outstanding {
                    if result.sent >= max_requests {
                        break;
                    }
                    self.issue(traffic);
                    result.sent += 1;
                }
            } else if !issuing && in_flight == 0 {
                break;
            }
            if now > stop_issuing + DRAIN_LIMIT {
                eprintln!("perfbench: {in_flight} replies still missing after the drain limit");
                result.failed += in_flight as u64;
                for i in 0..self.conns.len() {
                    self.reconnect(i);
                }
                break;
            }
            for i in 0..self.conns.len() {
                let token = Token(i);
                let conn = &mut self.conns[i];
                let ok = conn.flush().and_then(|()| conn.arm(&self.poll, token));
                if let Err(e) = ok {
                    result.failed += self.fail_connection(i, &e);
                }
            }
            if let Err(e) = self
                .poll
                .poll(&mut self.events, Some(Duration::from_millis(20)))
            {
                panic!("epoll_wait failed: {e}");
            }
            let ready: Vec<usize> = self.events.iter().map(|e| e.token().0).collect();
            for i in ready {
                if let Err(e) = self.read_replies(i, traffic, &mut buf, &mut result) {
                    result.failed += self.fail_connection(i, &e);
                }
            }
        }
        result.wall_s = started.elapsed().as_secs_f64();
        result
    }

    /// Queues the next request on the connection with the fewest in flight
    /// (alternating on ties).
    fn issue(&mut self, traffic: &mut Checked<'_>) {
        let n = self.conns.len();
        let mut pick = self.next_conn;
        for offset in 0..n {
            let i = (self.next_conn + offset) % n;
            if self.conns[i].in_flight.len() < self.conns[pick].in_flight.len() {
                pick = i;
            }
        }
        self.next_conn = (pick + 1) % n;
        let conn = &mut self.conns[pick];
        let req = traffic.issue(&mut conn.wire);
        conn.in_flight.push_back(InFlight {
            req,
            sent: Instant::now(),
        });
    }

    /// Reads everything the socket holds and hands each complete reply to the
    /// traffic.
    fn read_replies(
        &mut self,
        i: usize,
        traffic: &mut Checked<'_>,
        buf: &mut [u8],
        result: &mut PhaseResult,
    ) -> io::Result<()> {
        let conn = &mut self.conns[i];
        loop {
            match conn.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => conn.parser.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while conn.parser.poll(MAX_REPLY_BYTES)? == ParseStatus::Message {
            let done = Instant::now();
            let Some(flight) = conn.in_flight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "reply without a request",
                ));
            };
            let status = conn.parser.head().status_code()?;
            match traffic.check(&flight.req, status, conn.parser.body()) {
                Ok(info) => result.record(
                    flight.req.variant,
                    (done.duration_since(flight.sent).as_secs_f64() * 1e3) as f32,
                    info,
                ),
                Err(why) => {
                    if result.failed < 5 {
                        eprintln!("perfbench: wrong reply: {why}");
                    }
                    result.failed += 1;
                }
            }
            conn.parser.advance();
        }
        Ok(())
    }

    /// Counts a broken connection's requests as failed and replaces it.
    fn fail_connection(&mut self, i: usize, error: &io::Error) -> u64 {
        let lost = self.conns[i].in_flight.len() as u64;
        eprintln!("perfbench: connection {i} failed ({error}); {lost} requests lost");
        self.reconnect(i);
        lost
    }

    fn reconnect(&mut self, i: usize) {
        let _ = self.poll.deregister(&self.conns[i].stream);
        self.conns[i] =
            Conn::open(self.addr, &self.poll, Token(i)).expect("reconnect to the server");
    }
}
