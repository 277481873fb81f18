//! The origin fixture: a keep-alive loopback HTTP server whose answer is
//! a pure function of the request path. A path names its body's type,
//! size and framing, and every body carries a marker naming the path it
//! answers, so the client can prove each response belongs to its
//! request — no bleed between pipelined exchanges.
//!
//! Path grammar: `/<p|a>/<id>-<size><l|c>.<ext>` — `l` frames the body
//! with `Content-Length`, `c` sends it chunked; `ext` picks the type
//! (`html`, `css`, `js`, `png`, `jpg`). Any other path answers a small
//! HTML page. HTML bodies carry `<!--M:path-->` near both ends and four
//! visible links to sibling pages of the same size and framing; other
//! bodies start with `M:path\n` and end with `\nM:path`.
//!
//! The fixture runs one non-blocking event loop on one thread, so the
//! front door's connection churn costs it no thread spawns and adds one
//! runnable thread to the box, not one per connection.

use reactor::{Event, Interest, Reactor, Token, Waker};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Size of the body answered for paths outside the grammar.
const DEFAULT_SIZE: usize = 1024;
/// Slice size for chunked bodies.
const PIECE: usize = 16 * 1024;

/// What the fixture serves for one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodySpec {
    /// Body length in bytes.
    pub size: usize,
    /// `Transfer-Encoding: chunked` instead of `Content-Length`.
    pub chunked: bool,
    /// The `Content-Type`.
    pub content_type: &'static str,
}

impl BodySpec {
    /// Whether the body is an HTML page.
    pub fn html(&self) -> bool {
        self.content_type == "text/html"
    }
}

/// Decodes a path under the fixture's grammar.
pub fn spec(path: &str) -> BodySpec {
    parse(path).unwrap_or(BodySpec {
        size: DEFAULT_SIZE,
        chunked: false,
        content_type: "text/html",
    })
}

fn parse(path: &str) -> Option<BodySpec> {
    let rest = path
        .strip_prefix("/p/")
        .or_else(|| path.strip_prefix("/a/"))?;
    let (stem, ext) = rest.rsplit_once('.')?;
    let content_type = match ext {
        "html" => "text/html",
        "css" => "text/css",
        "js" => "application/javascript",
        "png" => "image/png",
        "jpg" => "image/jpeg",
        _ => return None,
    };
    let (_, size) = stem.rsplit_once('-')?;
    let (digits, framing) = size.split_at(size.len().checked_sub(1)?);
    let chunked = match framing {
        "l" => false,
        "c" => true,
        _ => return None,
    };
    Some(BodySpec {
        size: digits.parse().ok()?,
        chunked,
        content_type,
    })
}

/// The path of a fixture resource.
pub fn path(dir: char, id: u64, size: usize, chunked: bool, ext: &str) -> String {
    let framing = if chunked { 'c' } else { 'l' };
    format!("/{dir}/{id:x}-{size}{framing}.{ext}")
}

/// Whether `path` names a fixture resource (a page or an asset).
pub fn origin_path(path: &str) -> bool {
    path.starts_with("/p/") || path.starts_with("/a/")
}

/// The HTML marker naming `path`.
pub fn html_marker(path: &str) -> String {
    format!("<!--M:{path}-->")
}

fn filler_text() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let para = b"<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do \
eiusmod tempor incididunt ut labore et dolore magna aliqua.</p>\n";
        para.iter().copied().cycle().take(PIECE).collect()
    })
}

fn filler_binary() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| (0..PIECE as u32).map(|i| (i * 7 % 251) as u8).collect())
}

/// The sibling pages an HTML body links to: same size, same framing.
fn links(path: &str, spec: &BodySpec) -> Vec<String> {
    let base = path.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (1..=4u64)
        .map(|j| {
            self::path(
                'p',
                (base ^ j) & 0xffff_ffff,
                spec.size,
                spec.chunked,
                "html",
            )
        })
        .collect()
}

/// The body for `path` as opening, filler length and closing.
fn body_parts(path: &str, spec: &BodySpec) -> (String, usize, String) {
    let (open, close) = if spec.html() {
        let mut open = format!(
            "{}<html><head><title>fixture</title></head><body>\n<p>",
            html_marker(path)
        );
        for link in links(path, spec) {
            open.push_str(&format!("<a href=\"{link}\">next</a> "));
        }
        open.push_str("</p>\n");
        (open, format!("{}</body></html>\n", html_marker(path)))
    } else {
        (format!("M:{path}\n"), format!("\nM:{path}"))
    };
    let filler = spec.size.saturating_sub(open.len() + close.len());
    (open, filler, close)
}

/// Streams the body for `path` into `emit`, in slices of at most
/// [`PIECE`] bytes. Returns the body length.
fn write_body(path: &str, spec: &BodySpec, mut emit: impl FnMut(&[u8])) -> usize {
    let (open, mut filler, close) = body_parts(path, spec);
    let pattern = if spec.html() {
        filler_text()
    } else {
        filler_binary()
    };
    let total = open.len() + filler + close.len();
    emit(open.as_bytes());
    while filler > 0 {
        let n = filler.min(PIECE);
        emit(&pattern[..n]);
        filler -= n;
    }
    emit(close.as_bytes());
    total
}

/// Appends the whole response for `path` to `out`.
fn respond(out: &mut Vec<u8>, path: &str, close: bool) {
    let spec = spec(path);
    let connection = if close { "close" } else { "keep-alive" };
    let framing = if spec.chunked {
        "Transfer-Encoding: chunked".to_string()
    } else {
        let (open, filler, close) = body_parts(path, &spec);
        format!("Content-Length: {}", open.len() + filler + close.len())
    };
    out.extend_from_slice(
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {}\r\n{framing}\r\nConnection: {connection}\r\n\r\n",
            spec.content_type
        )
        .as_bytes(),
    );
    write_body(path, &spec, |piece| {
        if piece.is_empty() {
            return;
        }
        if spec.chunked {
            out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            out.extend_from_slice(piece);
            out.extend_from_slice(b"\r\n");
        } else {
            out.extend_from_slice(piece);
        }
    });
    if spec.chunked {
        out.extend_from_slice(b"0\r\n\r\n");
    }
}

/// Bytes the fixture puts on the wire for `path`: head, framing, body.
pub fn message_len(path: &str) -> usize {
    let mut out = Vec::new();
    respond(&mut out, path, false);
    out.len()
}

/// A running fixture. [`Fixture::stop`] ends its loop and joins it.
pub struct Fixture {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Fixture {
    /// Binds a loopback port and serves from one event-loop thread.
    pub fn start() -> io::Result<Fixture> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut reactor = Reactor::new()?;
        reactor.register(&listener, LISTENER, Interest::READABLE)?;
        let waker = reactor.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run(reactor, listener, &stop))
        };
        Ok(Fixture {
            addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The fixture's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ends the loop, closing every connection, and joins its thread.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| io::Error::other("fixture thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

const LISTENER: Token = Token(usize::MAX - 1);

struct Conn {
    stream: TcpStream,
    input: Vec<u8>,
    out: Vec<u8>,
    pos: usize,
    interest: Interest,
    close_after: bool,
}

fn run(mut reactor: Reactor, listener: TcpListener, stop: &AtomicBool) -> io::Result<()> {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        reactor.poll(&mut events, None)?;
        for ev in &events {
            if ev.token == LISTENER {
                accept(&mut reactor, &listener, &mut conns)?;
                continue;
            }
            let slot = ev.token.0;
            let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if step(&mut conn) {
                let want = if conn.pos < conn.out.len() {
                    Interest::BOTH
                } else {
                    Interest::READABLE
                };
                if want != conn.interest {
                    reactor.reregister(&conn.stream, Token(slot), want)?;
                    conn.interest = want;
                }
                conns[slot] = Some(conn);
            } else {
                reactor.deregister(&conn.stream)?;
            }
        }
    }
    Ok(())
}

fn accept(
    reactor: &mut Reactor,
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let slot = conns.iter().position(Option::is_none).unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        reactor.register(&stream, Token(slot), Interest::READABLE)?;
        conns[slot] = Some(Conn {
            stream,
            input: Vec::new(),
            out: Vec::new(),
            pos: 0,
            interest: Interest::READABLE,
            close_after: false,
        });
    }
}

/// Reads, answers every complete request, writes what the socket takes.
/// `false` once the connection is done.
fn step(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => conn.input.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    while !conn.close_after {
        let Some(end) = conn.input.windows(4).position(|w| w == b"\r\n\r\n") else {
            break;
        };
        let head = String::from_utf8_lossy(&conn.input[..end]).into_owned();
        conn.input.drain(..end + 4);
        let path = head.split(' ').nth(1).unwrap_or("/");
        let path = path.split('?').next().unwrap_or("/");
        conn.close_after = head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("connection: close"));
        if conn.pos == conn.out.len() {
            conn.out.clear();
            conn.pos = 0;
        }
        respond(&mut conn.out, path, conn.close_after);
    }
    while conn.pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return !eof,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    !(eof || conn.close_after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_round_trip_through_the_grammar() {
        let p = path('a', 0xbeef, 2_000_000, true, "png");
        assert_eq!(p, "/a/beef-2000000c.png");
        assert_eq!(
            spec(&p),
            BodySpec {
                size: 2_000_000,
                chunked: true,
                content_type: "image/png"
            }
        );
        assert_eq!(spec("/00000000000000000001.html").size, DEFAULT_SIZE);
    }

    #[test]
    fn bodies_have_their_exact_size_and_both_markers() {
        for (p, html) in [
            (path('p', 7, 20_000, false, "html"), true),
            (path('a', 9, 100_000, true, "png"), false),
        ] {
            let s = spec(&p);
            let mut body = Vec::new();
            let n = write_body(&p, &s, |piece| body.extend_from_slice(piece));
            assert_eq!(n, s.size);
            assert_eq!(body.len(), s.size);
            if html {
                let text = String::from_utf8_lossy(&body);
                assert!(text.starts_with(&html_marker(&p)));
                assert!(text.ends_with(&format!("{}</body></html>\n", html_marker(&p))));
            } else {
                assert!(body.starts_with(format!("M:{p}\n").as_bytes()));
                assert!(body.ends_with(format!("\nM:{p}").as_bytes()));
            }
        }
    }

    #[test]
    fn serves_pipelined_requests_over_one_keep_alive_connection() {
        let fixture = Fixture::start().unwrap();
        let mut conn = TcpStream::connect(fixture.addr()).unwrap();
        let a = path('a', 1, 300_000, true, "png");
        let b = path('p', 2, 5000, false, "html");
        conn.write_all(&crate::http::get(&a, "t")).unwrap();
        conn.write_all(&crate::http::get(&b, "t")).unwrap();
        let mut reader = crate::http::ResponseReader::default();
        let mut got = Vec::new();
        let mut chunk = [0u8; 8192];
        while got.len() < 2 {
            let n = conn.read(&mut chunk).unwrap();
            assert!(n > 0);
            reader.feed(&chunk[..n]);
            while let Some(p) = reader.next().unwrap() {
                got.push(p);
            }
        }
        assert!(got[0].chunked && got[0].body_len == 300_000);
        assert!(got[1].text().starts_with(&html_marker(&b)));
        fixture.stop().unwrap();
    }
}
