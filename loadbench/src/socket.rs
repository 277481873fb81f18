//! The socket run: the real front door with production defaults, driven
//! over loopback by a one-thread open-loop generator on at most `nproc`
//! keep-alive connections.

use crate::fixture::Fixture;
use crate::http::ResponseReader;
use crate::stats::StealLog;
use crate::timer::Timer;
use crate::workload::Generator;
use botwall_gateway::Gateway;
use botwall_serve::{ServeConfig, ServeReport, Server, ShutdownHandle};
use reactor::{Event, Interest, Reactor, Token};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor token of the due-time timer.
const TIMER: Token = Token(usize::MAX - 1);

/// The gateway seed the `botwall-serve` binary defaults to.
pub const GATEWAY_SEED: u64 = 1;

/// A running front door over its own origin fixture.
pub struct FrontDoor {
    /// The gateway behind the front door.
    pub gateway: Arc<Gateway>,
    /// Where the front door listens.
    pub addr: SocketAddr,
    /// Origin fixture + gateway + `Server::bind` to the first served
    /// request, in seconds.
    pub setup_s: f64,
    shutdown: ShutdownHandle,
    server: JoinHandle<io::Result<ServeReport>>,
    fixture: Fixture,
}

impl FrontDoor {
    /// Starts the fixture, builds the gateway and the server exactly as
    /// the `botwall-serve` binary does by default (one reactor, origin
    /// pool on), and times it to the first served request.
    pub fn start() -> io::Result<FrontDoor> {
        let t0 = Instant::now();
        let fixture = Fixture::start()?;
        let gateway = Arc::new(Gateway::builder().seed(GATEWAY_SEED).build());
        let config = ServeConfig {
            origin: Some(fixture.addr()),
            ..ServeConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&gateway), config)?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let server = std::thread::spawn(move || server.run());
        // The operator plane answers without touching any session.
        let mut probe = TcpStream::connect(addr)?;
        probe.write_all(
            b"GET /admin/stats HTTP/1.1\r\nHost: site.example\r\nConnection: close\r\n\r\n",
        )?;
        let mut answer = Vec::new();
        probe.read_to_end(&mut answer)?;
        if !answer.starts_with(b"HTTP/1.1 200") {
            return Err(io::Error::other(
                "front door did not serve its first request",
            ));
        }
        let setup_s = t0.elapsed().as_secs_f64();
        Ok(FrontDoor {
            gateway,
            addr,
            setup_s,
            shutdown,
            server,
            fixture,
        })
    }

    /// Drains the front door (every session classified once), then stops
    /// the fixture.
    pub fn stop(self) -> io::Result<ServeReport> {
        self.shutdown.shutdown();
        let report = self
            .server
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        self.fixture.stop()?;
        Ok(report)
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    pos: usize,
    inflight: VecDeque<usize>,
    reader: ResponseReader,
    interest: Interest,
}

/// How often the driver reads the host's steal counter.
const STEAL_EVERY_NS: u64 = 5_000_000;

/// Steal ticks counted so far over all CPUs (the `steal` column of the
/// `cpu` line of `/proc/stat`), if the kernel reports them.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Client connections the generator may use: `nproc`, at most 2.
pub fn client_conns() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Runs `generator`'s stream against `addr` until every request is
/// answered or `give_up` passes; unanswered requests count as lost.
/// With `overload` set, a request left unanswered that long past its
/// due time stops the arrival process (the run then drains).
pub fn drive(
    addr: SocketAddr,
    generator: &mut Generator,
    give_up: Duration,
    overload: Option<Duration>,
) -> io::Result<StealLog> {
    let mut reactor = Reactor::new()?;
    let mut conns = Vec::new();
    for i in 0..client_conns() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        reactor.register(&stream, Token(i), Interest::READABLE)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            pos: 0,
            inflight: VecDeque::new(),
            reader: ResponseReader::default(),
            interest: Interest::READABLE,
        });
    }
    let mut timer = Timer::new()?;
    reactor.register(&timer, TIMER, Interest::READABLE)?;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut events: Vec<Event> = Vec::new();
    let mut steal = StealLog::default();
    let mut steal_read_ns = None;
    loop {
        let now = now_ns();
        if steal_read_ns.is_none_or(|at| now >= at + STEAL_EVERY_NS) {
            if let Some(ticks) = steal_ticks() {
                steal.record(now, ticks);
            }
            steal_read_ns = Some(now);
        }
        while let Some(out) = generator.pop_due(now) {
            let conn = &mut conns[out.conn];
            conn.out.extend_from_slice(&out.bytes);
            conn.inflight.push_back(out.id);
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            flush(conn)?;
            let want = if conn.pos < conn.out.len() {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if want != conn.interest {
                reactor.reregister(&conn.stream, Token(i), want)?;
                conn.interest = want;
            }
        }
        if generator.finished() {
            return Ok(steal);
        }
        if start.elapsed() > give_up {
            for conn in &mut conns {
                while let Some(id) = conn.inflight.pop_front() {
                    generator.lost(id, "no answer before the run's deadline");
                }
            }
            return Ok(steal);
        }
        // Sleep in epoll until an answer arrives or the timer fires at
        // the next due time.
        let wait_ns = generator
            .next_due()
            .map_or(10_000_000, |due| due.saturating_sub(now_ns()));
        if wait_ns == 0 {
            reactor.poll(&mut events, Some(Duration::ZERO))?;
        } else {
            timer.arm(Duration::from_nanos(wait_ns))?;
            reactor.poll(&mut events, None)?;
        }
        for ev in &events {
            if ev.token == TIMER {
                timer.clear();
                continue;
            }
            let conn = &mut conns[ev.token.0];
            if ev.readable || ev.closed {
                read(conn, generator, &start)?;
            }
        }
        if let Some(limit) = overload {
            let oldest = conns
                .iter()
                .filter_map(|c| c.inflight.front())
                .map(|&id| generator.due_ns(id))
                .min();
            if oldest.is_some_and(|due| now_ns().saturating_sub(due) > limit.as_nanos() as u64) {
                generator.stop_arrivals();
            }
        }
    }
}

fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.pos..]) {
            Ok(0) => return Err(io::Error::other("front door closed a client connection")),
            Ok(n) => conn.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.pos = 0;
    Ok(())
}

fn read(conn: &mut Conn, generator: &mut Generator, start: &Instant) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::other(format!(
                    "front door closed a client connection with {} requests in flight",
                    conn.inflight.len()
                )))
            }
            Ok(n) => {
                conn.reader.feed(&chunk[..n]);
                loop {
                    match conn.reader.next() {
                        Ok(Some(parsed)) => {
                            let done = start.elapsed().as_nanos() as u64;
                            let id = conn.inflight.pop_front().ok_or_else(|| {
                                io::Error::other("an answer arrived for no request")
                            })?;
                            generator.answer(id, Ok(parsed), done);
                        }
                        Ok(None) => break,
                        Err(why) => {
                            return Err(io::Error::other(format!("mis-framed answer: {why}")))
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
