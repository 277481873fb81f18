//! The traced run: the same generated request stream, fed in process
//! through the public functions the front door's `server.rs` calls, in
//! the same order, each request at its due time as `SimTime`. Origin
//! fetches still cross loopback to the fixture, over one keep-alive
//! connection as the front door's pool would use. Spans (name, start,
//! end, parent, request) are kept in memory and written out at the end.

use crate::fixture::Fixture;
use crate::http::{Parsed, ResponseReader};
use crate::socket::GATEWAY_SEED;
use crate::workload::{Client, Generator, Workload};
use botwall_gateway::{Gateway, Origin, PendingServe};
use botwall_http::request::ClientIp;
use botwall_http::{wire, Response, StatusCode};
use botwall_serve::frame::{self, BodyDecoder, Framing};
use botwall_sessions::SimTime;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Slice of origin body fed per decode → rewrite → chunk-encode hop.
const SLICE: usize = 16 * 1024;

/// One span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call it times.
    pub name: &'static str,
    /// Start, ns from the replay's start.
    pub start_ns: u64,
    /// End, ns from the replay's start.
    pub end_ns: u64,
    /// Index of the enclosing span (`u32::MAX` for a request's root).
    pub parent: u32,
    /// The request the span belongs to.
    pub req: u32,
}

/// Every this many requests, one is traced: a uniform sample keeps the
/// span file of a 100k-request stream to tens of thousands of requests.
const TRACE_EVERY: u32 = 4;

/// Span recorder; a disabled tracer records nothing and costs nothing
/// but the branch.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on || !req.is_multiple_of(TRACE_EVERY) {
            return u32::MAX;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, idx: u32) {
        if idx != u32::MAX {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: u32, req: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, parent, req);
        let out = f();
        self.end(idx);
        out
    }
}

/// Counts the replay makes at the layer boundaries it crosses.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Calls to `handle_deferred`.
    pub gated: u64,
    /// Of those, answered by the gate alone (`PendingServe::Ready`).
    pub gate_ready: u64,
    /// Origin bytes fed through `BodyDecoder::push` on streamed pages.
    pub decoded_in: u64,
    /// Decoded bytes fed through `PageStream::write`.
    pub rewritten_in: u64,
    /// Largest rewriter hold-back seen (`PageStream::peak_buffered`).
    pub peak_buffered: usize,
    /// Streamed pages and the bytes their rewriting added.
    pub pages: u64,
    /// Bytes instrumentation added to those pages.
    pub page_overhead: u64,
}

/// What one replay produced.
pub struct Replay {
    /// The generator, holding the stream's request log and answers.
    pub generator: Generator,
    /// Spans, empty when untraced.
    pub spans: Vec<Span>,
    /// Layer counts.
    pub counts: LayerCounts,
    /// Wall time of the whole replay, in seconds.
    pub wall_s: f64,
    /// Humans judged robot, robots judged robot.
    pub verdicts: VerdictCounts,
}

/// Verdicts read through `Gateway::verdict` at the end of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Human sessions seen.
    pub humans: u64,
    /// Human sessions judged robot.
    pub humans_as_robot: u64,
    /// Robot sessions seen.
    pub robots: u64,
    /// Robot sessions judged robot.
    pub robots_as_robot: u64,
}

/// Reads every touched key's verdict.
pub fn verdicts(gateway: &Gateway, generator: &Generator) -> VerdictCounts {
    use botwall_core::classifier::Verdict;
    let mut v = VerdictCounts::default();
    for (i, client) in generator.touched_keys() {
        let key = botwall_sessions::SessionKey::new(loopback(), generator.workload().user_agent(i));
        let robot = matches!(
            gateway.verdict(&key),
            Verdict::Robot(_) | Verdict::ProvisionalRobot(_)
        );
        if client == Client::Human {
            v.humans += 1;
            v.humans_as_robot += u64::from(robot);
        } else {
            v.robots += 1;
            v.robots_as_robot += u64::from(robot);
        }
    }
    v
}

fn loopback() -> ClientIp {
    ClientIp::new(u32::from_be_bytes([127, 0, 0, 1]))
}

/// Replays the stream `Generator::new(work, seed, rps, warmup_ns,
/// end_ns, _)` in process; `traced` records spans.
pub fn run(
    work: &Workload,
    seed: u64,
    rps: f64,
    warmup_ns: u64,
    end_ns: u64,
    traced: bool,
) -> io::Result<Replay> {
    let fixture = Fixture::start()?;
    let mut origin = TcpStream::connect(fixture.addr())?;
    origin.set_nodelay(true)?;
    let gateway = Gateway::builder().seed(GATEWAY_SEED).build();
    let mut generator = Generator::new(work, seed, rps, warmup_ns, end_ns, 1);
    let mut tracer = Tracer {
        on: traced,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut counts = LayerCounts::default();
    let started = Instant::now();
    while let Some(due) = generator.next_due() {
        while let Some(out) = generator.pop_due(due) {
            let now = SimTime::from_millis(due / 1_000_000);
            let t = Instant::now();
            let root = tracer.begin("request", u32::MAX, out.id as u32);
            let req = out.id as u32;
            let wire_out = serve(
                &gateway,
                &mut origin,
                &out.bytes,
                now,
                &mut tracer,
                (root, req),
                &mut counts,
            )?;
            tracer.end(root);
            let took = t.elapsed().as_nanos() as u64;
            let mut reader = ResponseReader::default();
            reader.feed(&wire_out);
            let answer: Result<Parsed, String> = reader
                .next()
                .and_then(|p| p.ok_or_else(|| "incomplete answer".to_string()));
            generator.answer(out.id, answer, due + took);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let verdicts = verdicts(&gateway, &generator);
    drop(origin);
    fixture.stop()?;
    Ok(Replay {
        generator,
        spans: tracer.spans,
        counts,
        wall_s,
        verdicts,
    })
}

/// One request through the calls `server.rs` makes, in its order.
/// Returns the bytes the front door would put on the wire.
fn serve(
    gateway: &Gateway,
    origin: &mut TcpStream,
    bytes: &[u8],
    now: SimTime,
    t: &mut Tracer,
    (root, req): (u32, u32),
    counts: &mut LayerCounts,
) -> io::Result<Vec<u8>> {
    let len = match t.span("frame.measure", root, req, || frame::measure(bytes)) {
        Ok(Framing::Complete { len }) => len,
        other => {
            return Err(io::Error::other(format!(
                "request did not frame: {other:?}"
            )))
        }
    };
    let request = t
        .span("wire.parse_request", root, req, || {
            frame::dechunk(&bytes[..len]).and_then(|raw| wire::parse_request(&raw, loopback()))
        })
        .map_err(|e| io::Error::other(format!("request did not parse: {e}")))?;
    // Out of line: `handle_deferred` runs the same classification
    // inside its gate span.
    t.span("instrument.classify", root, req, || {
        std::hint::black_box(gateway.engine().classify(&request, now))
    });
    counts.gated += 1;
    let pending = match t.span("gateway.gate", root, req, || {
        gateway.handle_deferred(&request, now)
    }) {
        PendingServe::Ready(decision) => {
            counts.gate_ready += 1;
            return Ok(serialize(decision.into_response(), t, root, req));
        }
        PendingServe::AwaitingOrigin(pending) => pending,
    };
    let mut upstream = Vec::new();
    wire::serialize_request_into(pending.request(), &mut upstream);
    let raw = t.span("origin.fetch", root, req, || fetch(origin, &upstream))?;
    let head = t
        .span("frame.response_head", root, req, || {
            frame::response_head(&raw)
        })
        .ok()
        .flatten();
    let Some(head) =
        head.filter(|h| h.status == 200 && h.content_type.as_deref() == Some("text/html"))
    else {
        // The buffered path: measure the whole message, map it, commit.
        let origin_answer = match t.span("frame.measure", root, req, || frame::measure(&raw)) {
            Ok(Framing::Complete { len }) => classify_origin(&raw[..len]),
            _ => Origin::Response(Response::empty(StatusCode::BAD_GATEWAY)),
        };
        let decision = t.span("gateway.commit", root, req, || {
            gateway.complete(pending, origin_answer, now)
        });
        return Ok(serialize(decision.into_response(), t, root, req));
    };
    let mut page = t.span("gateway.stream_begin", root, req, || {
        gateway.begin_page_stream(&pending, now)
    });
    let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\
Cache-Control: no-cache, no-store\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
        .to_vec();
    let mut decoder = BodyDecoder::new(head.framing);
    let mut buf = Vec::with_capacity(SLICE);
    let mut decoded = Vec::with_capacity(SLICE);
    let mut rewritten = Vec::with_capacity(SLICE);
    // Per-byte rates divide traced time by traced bytes only.
    let traced = u64::from(root != u32::MAX);
    for slice in raw[head.len..].chunks(SLICE) {
        buf.extend_from_slice(slice);
        decoded.clear();
        counts.decoded_in += traced * slice.len() as u64;
        let done = t
            .span("frame.body_decode", root, req, || {
                decoder.push(&mut buf, &mut decoded)
            })
            .map_err(|e| io::Error::other(format!("origin body did not decode: {e}")))?;
        rewritten.clear();
        counts.rewritten_in += traced * decoded.len() as u64;
        t.span("instrument.rewrite", root, req, || {
            page.write(&decoded, &mut rewritten)
        });
        chunk_encode(&rewritten, &mut out);
        if done {
            break;
        }
    }
    counts.peak_buffered = counts.peak_buffered.max(page.peak_buffered());
    rewritten.clear();
    let served = t.span("gateway.stream_finish", root, req, || {
        gateway.finish_page_stream(pending, page, &mut rewritten, raw.len() as u64, now)
    });
    chunk_encode(&rewritten, &mut out);
    out.extend_from_slice(b"0\r\n\r\n");
    if let Some(manifest) = served.manifest {
        counts.pages += 1;
        counts.page_overhead += manifest.html_overhead as u64;
    }
    Ok(out)
}

/// Frames and serializes a whole response as `set_response` does.
fn serialize(mut response: Response, t: &mut Tracer, root: u32, req: u32) -> Vec<u8> {
    if !response.headers().contains("Content-Length") {
        let len = response.body().len();
        response
            .headers_mut()
            .set("Content-Length", len.to_string());
    }
    response.headers_mut().set("Connection", "keep-alive");
    let mut out = Vec::new();
    t.span("wire.serialize_response", root, req, || {
        wire::serialize_response_into(&response, &mut out)
    });
    out
}

/// One blocking round trip to the fixture; returns the raw response.
fn fetch(origin: &mut TcpStream, upstream: &[u8]) -> io::Result<Vec<u8>> {
    origin.write_all(upstream)?;
    let mut reader = ResponseReader::default();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = origin.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("fixture closed mid-response"));
        }
        raw.extend_from_slice(&chunk[..n]);
        reader.feed(&chunk[..n]);
        if reader
            .next()
            .map_err(|e| io::Error::other(format!("fixture answer: {e}")))?
            .is_some()
        {
            return Ok(raw);
        }
    }
}

/// The front door's mapping of a whole origin message to the gateway's
/// `Origin` taxonomy.
fn classify_origin(raw: &[u8]) -> Origin {
    let Ok(identity) = frame::dechunk(raw) else {
        return Origin::Response(Response::empty(StatusCode::BAD_GATEWAY));
    };
    let Ok(response) = wire::parse_response(&identity) else {
        return Origin::Response(Response::empty(StatusCode::BAD_GATEWAY));
    };
    if response.status() == StatusCode::NOT_FOUND {
        return Origin::NotFound;
    }
    let html = response
        .content_type()
        .is_some_and(|ct| ct.starts_with("text/html"));
    if response.status() == StatusCode::OK && html {
        match String::from_utf8(response.body().to_vec()) {
            Ok(page) => Origin::Page(page),
            Err(_) => Origin::Response(response),
        }
    } else {
        Origin::Response(response)
    }
}

fn chunk_encode(data: &[u8], out: &mut Vec<u8>) {
    for piece in data.chunks(64 * 1024) {
        out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
        out.extend_from_slice(piece);
        out.extend_from_slice(b"\r\n");
    }
}

/// Per-name span durations, in ns.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64);
    }
    by
}

/// Writes the spans as tab-separated lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}
