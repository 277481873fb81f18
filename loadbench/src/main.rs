//! Open-loop loopback benchmark of the botwall front door.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the real front door
//! (`Server::bind` + `Server::run`, `ServeConfig::default()`, one
//! reactor, origin pool on, one `Arc<Gateway>`) driven over loopback at
//! the workload's nominal rate, then a rate ladder for `max_rps`.
//! `--trace 1` measures the per-layer metrics: the same nominal socket
//! run, then the same request stream replayed in process through the
//! layers' public functions, once untraced and once traced. Every line
//! before the last names one metric with its unit; the last line is one
//! JSON object. A broken correctness check exits 1.
//! See `loadbench/README.md`.

mod fixture;
mod http;
mod replay;
mod socket;
mod stats;
mod timer;
mod workload;

use botwall_gateway::GatewayStats;
use botwall_serve::ServeReport;
use replay::{Replay, VerdictCounts};
use socket::FrontDoor;
use stats::{median, MISS_MS};
use std::io;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Generator, Route, Workload};

/// Share of `--seconds` spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.5;
/// Climbs of the ladder `max_rps` averages.
const CLIMBS: u64 = 2;
/// Share of `--seconds` one ladder probe offers load for.
const PROBE_SHARE: f64 = 0.05;
/// Share of the nominal phase whose requests warm up and are not timed.
const WARMUP_SHARE: f64 = 0.15;
/// Share of a ladder probe whose requests warm up and are not timed: a
/// fresh front door starts cold, and near capacity the backlog of its
/// first few hundred ms takes long to drain.
const PROBE_WARMUP_SHARE: f64 = 0.4;
/// Grace after a phase's arrivals end for its answers to come in.
const GRACE: Duration = Duration::from_secs(20);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a run prints.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    broken: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn add(&mut self, generator: &Generator) {
        self.attempted += generator.tally.attempted;
        self.failed += generator.tally.failed;
        self.broken
            .extend(generator.tally.broken_why.iter().cloned());
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// One socket phase: a fresh front door, one stream, then drain.
struct Phase {
    generator: Generator,
    setup_s: f64,
    stats: GatewayStats,
    verdicts: VerdictCounts,
    report: ServeReport,
    steal: stats::StealLog,
}

fn socket_phase(
    work: &Workload,
    seed: u64,
    rps: f64,
    seconds: f64,
    warmup_share: f64,
    overload_ms: Option<f64>,
) -> io::Result<Phase> {
    let end_ns = (seconds * 1e9) as u64;
    let warmup_ns = (seconds * warmup_share * 1e9) as u64;
    let door = FrontDoor::start()?;
    let conns = socket::client_conns();
    let mut generator = Generator::new(work, seed, rps, warmup_ns, end_ns, conns);
    if overload_ms.is_some() {
        // A probe reads no verdicts: its visits end with its arrivals.
        generator.drop_tail();
    }
    let steal = socket::drive(
        door.addr,
        &mut generator,
        Duration::from_nanos(end_ns) + GRACE,
        overload_ms.map(|ms| Duration::from_micros((ms * 1000.0) as u64)),
    )?;
    let stats = door.gateway.stats();
    let verdicts = replay::verdicts(&door.gateway, &generator);
    let setup_s = door.setup_s;
    let report = door.stop()?;
    Ok(Phase {
        generator,
        setup_s,
        stats,
        verdicts,
        report,
        steal,
    })
}

/// Nearest-rank `q` quantile of `samples`, `MISS_MS` when empty.
fn quantile(samples: &mut stats::Samples, q: f64) -> f64 {
    samples.quantile(q).unwrap_or(MISS_MS)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks every run makes of its nominal phase.
fn check_phase(work: &Workload, phase: &Phase, out: &mut Report) {
    if phase.stats.live_sessions > work.ring() {
        out.broken.push(format!(
            "{} live sessions exceed the ring of {}",
            phase.stats.live_sessions,
            work.ring()
        ));
    }
}

/// One ladder probe at `rate`: passes when the p99 stays
/// within the workload's limit, the backlog does not grow, the
/// generator kept its schedule, and no request waited long enough to
/// stop arrivals.
/// Returns the phase, the verdict, and the achieved rate.
fn probe(work: &Workload, seed: u64, rate: f64, seconds: f64) -> io::Result<(Phase, bool, f64)> {
    let phase = socket_phase(
        work,
        seed,
        rate,
        seconds,
        PROBE_WARMUP_SHARE,
        Some(4.0 * work.limit_ms),
    )?;
    let g = &phase.generator;
    let late_p99 = g.late_p99_ms();
    let stopped = g.arrivals_stopped();
    let (from, to) = g.measured_span();
    let p99 = quantile(&mut g.tally.all.samples(), 0.99);
    // A growing backlog shows as medians climbing from the first third
    // of the windows to the last.
    let p50s = g.tally.all.per_window(from, to, 0.5);
    let third = p50s.len().div_ceil(3);
    let first = median(&p50s[..third]);
    let last = median(&p50s[p50s.len() - third..]);
    let backlog = last > 2.0 * first + work.limit_ms / 4.0;
    let pass = !stopped && p99 <= work.limit_ms && !backlog && late_p99 <= work.limit_ms / 2.0;
    let all = g.tally.all.samples();
    let achieved = (all.count() - all.misses()) as f64 / (seconds * (1.0 - PROBE_WARMUP_SHARE));
    println!(
        "# probe offered {rate:.1} req/s: achieved {achieved:.1} req/s, p99 {p99:.3} ms, \
         first/last third p50 {first:.3}/{last:.3} ms, generator late p99 {late_p99:.3} ms, \
         arrivals stopped {stopped} -> {}",
        if pass { "pass" } else { "fail" }
    );
    Ok((phase, pass, achieved))
}

fn end_to_end(work: &Workload, args: &Args) -> io::Result<Report> {
    let mut out = Report::default();
    let seconds = args.seconds as f64;
    let nominal = socket_phase(
        work,
        args.seed,
        work.nominal_rps,
        seconds * NOMINAL_SHARE,
        WARMUP_SHARE,
        None,
    )?;
    out.add(&nominal.generator);
    check_phase(work, &nominal, &mut out);
    let mut setups = vec![nominal.setup_s];
    // Memory at the nominal rate: read before the ladder overloads.
    let peak_rss = peak_rss_mb();

    // Fixed geometric ladder; each probe is a fresh front door, so a
    // rung's result depends on its rate and the seed only. A failing
    // rung is tried once more on another seed: the host's other tenants
    // only ever take capacity away, so one contended trial must not end
    // the climb, while a pass shows the rate was sustained. The climb is
    // made twice, on separate seeds, and `max_rps` is the mean of the
    // two: capacity near the top rungs moves with the host from second
    // to second.
    let ladder = work.ladder;
    let probe_s = seconds * PROBE_SHARE;
    let mut error = None;
    let mut trial = |climb: u64, rung: usize, attempt: u64| -> Option<f64> {
        let seed = args.seed ^ ((rung as u64 + 1) << 40) ^ (attempt << 56) ^ (climb << 60);
        match probe(work, seed, ladder.rate(rung), probe_s) {
            Ok((phase, pass, achieved)) => {
                setups.push(phase.setup_s);
                out.add(&phase.generator);
                pass.then_some(achieved)
            }
            Err(e) => {
                error.get_or_insert(e);
                None
            }
        }
    };
    let mut tops = Vec::new();
    for climb in 0..CLIMBS {
        let mut achieved = std::collections::BTreeMap::new();
        let found =
            ladder.search(
                |rung| match trial(climb, rung, 0).or_else(|| trial(climb, rung, 1)) {
                    Some(rate) => achieved.insert(rung, rate).is_none(),
                    None => false,
                },
            );
        tops.extend(found.and_then(|rung| achieved.get(&rung).copied()));
    }
    if let Some(e) = error {
        return Err(e);
    }
    println!("# ladder tops req/s: {tops:?}");
    let max_rps = if tops.len() == CLIMBS as usize {
        tops.iter().sum::<f64>() / tops.len() as f64
    } else {
        out.broken
            .push("a climb of the ladder found no rung within the latency limit".into());
        0.0
    };

    let late_p99 = nominal.generator.late_p99_ms();
    let (from, to) = nominal.generator.measured_span();
    let t = &nominal.generator.tally;
    let (mut all, mut pages) = (t.all.samples(), t.pages.samples());
    println!(
        "# workload {} seed {} seconds {}",
        work.name, args.seed, args.seconds
    );
    println!(
        "# ring of {} keys by agent kind: {:?}",
        work.ring(),
        work.mix()
    );
    println!(
        "# nominal {} req/s: {} samples in {} windows ({} pages in {}), {} attempted, \
         {} failed ({} oversize 502), generator late p99 {:.3} ms",
        work.nominal_rps,
        all.count(),
        t.all.windows(from, to).len(),
        pages.count(),
        t.pages.windows(from, to).len(),
        t.attempted,
        t.failed,
        t.oversize_502,
        late_p99
    );
    let rounded = |v: Vec<f64>| v.iter().map(|ms| format!("{ms:.3}")).collect::<Vec<_>>();
    for q in [0.5, 0.99] {
        println!(
            "# per-window p{} ms: all {:?}; pages {:?}",
            q * 100.0,
            rounded(t.all.per_window(from, to, q)),
            rounded(t.pages.per_window(from, to, q))
        );
    }
    println!(
        "# oversize 502 share {} observed, {} expected",
        ratio(t.oversize_502, t.attempted),
        work.oversize_share()
    );
    let v = nominal.verdicts;
    println!(
        "# fail_ratio {} ratio; human_fp_ratio {} ratio ({} of {} humans)",
        ratio(t.failed, t.attempted),
        ratio(v.humans_as_robot, v.humans),
        v.humans_as_robot,
        v.humans
    );
    out.metric("setup_s", median(&setups), "s");
    println!(
        "# whole-run p99 ms: all {}; pages {}",
        quantile(&mut all, 0.99),
        quantile(&mut pages, 0.99)
    );
    let steal = &nominal.steal;
    let (p99, voided) = t.all.window_median(from, to, 0.99, steal);
    let (page_p99, page_voided) = t.pages.window_median(from, to, 0.99, steal);
    println!(
        "# windows left out for host steal: {voided} of {} (pages {page_voided} of {}); \
         steal ticks over the phase {}",
        t.all.window_spans(from, to).len(),
        t.pages.window_spans(from, to).len(),
        steal.ticks(from, to)
    );
    out.metric("p50_ms", quantile(&mut all, 0.5), "ms");
    out.metric("p99_ms", p99, "ms");
    out.metric("page_p50_ms", quantile(&mut pages, 0.5), "ms");
    out.metric("page_p99_ms", page_p99, "ms");
    out.metric("max_rps", max_rps, "req/s");
    out.metric(
        "overhead_pct",
        100.0
            * ratio(
                nominal.stats.instrumentation_bytes,
                nominal.stats.total_bytes,
            ),
        "%",
    );
    out.metric(
        "robot_detect_ratio",
        ratio(v.robots_as_robot, v.robots),
        "ratio",
    );
    out.metric("peak_rss_mb", peak_rss, "MB");
    Ok(out)
}

fn traced(work: &Workload, args: &Args) -> io::Result<Report> {
    let mut out = Report::default();
    let seconds = args.seconds as f64 * NOMINAL_SHARE;
    let mut sock = socket_phase(
        work,
        args.seed,
        work.nominal_rps,
        seconds,
        WARMUP_SHARE,
        None,
    )?;
    out.add(&sock.generator);
    check_phase(work, &sock, &mut out);
    let end_ns = (seconds * 1e9) as u64;
    let warmup_ns = (seconds * WARMUP_SHARE * 1e9) as u64;
    let plain = replay::run(work, args.seed, work.nominal_rps, warmup_ns, end_ns, false)?;
    let mut traced = replay::run(work, args.seed, work.nominal_rps, warmup_ns, end_ns, true)?;
    out.add(&traced.generator);
    agree(&sock, &traced, &mut out);

    let spans_path = std::path::PathBuf::from(format!(
        "loadbench/out/spans-{}-{}.tsv",
        work.name, args.seed
    ));
    replay::write_spans(&spans_path, &traced.spans)?;
    println!(
        "# workload {} seed {}: {} spans written to {}",
        work.name,
        args.seed,
        traced.spans.len(),
        spans_path.display()
    );
    layer_metrics(&mut out, &mut sock, &mut traced, &plain);
    Ok(out)
}

/// The replay and the socket run of one seed must agree exactly on the
/// status histogram, the verdict counts and every answer's status and
/// body length, or the per-layer numbers describe another program path.
fn agree(sock: &Phase, replay: &Replay, out: &mut Report) {
    let (a, b) = (&sock.generator.tally, &replay.generator.tally);
    println!("# statuses socket {:?} replay {:?}", a.statuses, b.statuses);
    println!(
        "# verdicts socket {:?} replay {:?}",
        sock.verdicts, replay.verdicts
    );
    println!(
        "# answer digests socket {:016x} replay {:016x}",
        a.answers, b.answers
    );
    if a.statuses != b.statuses {
        out.broken
            .push("replay and socket status histograms differ".into());
    }
    if sock.verdicts != replay.verdicts {
        out.broken.push("replay and socket verdicts differ".into());
    }
    if a.answers != b.answers {
        out.broken
            .push("replay and socket answers differ in a status or body length".into());
    }
}

fn layer_metrics(out: &mut Report, sock: &mut Phase, traced: &mut Replay, plain: &Replay) {
    let spans = replay::durations(&traced.spans);
    let med = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
    let sum = |name: &str| spans.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let c = &traced.counts;
    let per_kb = |ns: f64, bytes: u64| {
        if bytes == 0 {
            0.0
        } else {
            ns / (bytes as f64 / 1024.0)
        }
    };
    let late_p99 = sock.generator.late_p99_ms();
    let t = &mut sock.generator.tally;
    let st = &sock.stats;

    out.metric("wire.parse_request.ns", med("wire.parse_request"), "ns");
    out.metric(
        "wire.serialize_response.ns",
        med("wire.serialize_response"),
        "ns",
    );
    out.metric("frame.measure.ns", med("frame.measure"), "ns");
    out.metric("frame.response_head.ns", med("frame.response_head"), "ns");
    out.metric(
        "frame.body_decode.ns_per_kb",
        per_kb(sum("frame.body_decode"), c.decoded_in),
        "ns/KiB",
    );
    out.metric("gateway.gate.ns", med("gateway.gate"), "ns");
    out.metric(
        "gateway.gate.ready_ratio",
        ratio(c.gate_ready, c.gated),
        "ratio",
    );
    out.metric(
        "gateway.first_contact_ratio",
        ratio(t.first_contacts, t.attempted),
        "ratio",
    );
    out.metric("gateway.stream_begin.ns", med("gateway.stream_begin"), "ns");
    out.metric(
        "gateway.stream_finish.ns",
        med("gateway.stream_finish"),
        "ns",
    );
    out.metric("gateway.commit.ns", med("gateway.commit"), "ns");
    out.metric(
        "instrument.rewrite.ns_per_kb",
        per_kb(sum("instrument.rewrite"), c.rewritten_in),
        "ns/KiB",
    );
    out.metric(
        "instrument.peak_buffered_bytes",
        c.peak_buffered as f64,
        "bytes",
    );
    out.metric("instrument.classify.ns", med("instrument.classify"), "ns");
    out.metric(
        "instrument.overhead_bytes_per_page",
        ratio(c.page_overhead, c.pages),
        "bytes",
    );
    out.metric("sessions.live", st.live_sessions as f64, "count");
    out.metric("sessions.token_entries", st.token_entries as f64, "count");
    out.metric("origin.fetch.us", med("origin.fetch") / 1e3, "us");
    let r = &sock.report;
    out.metric("serve.origin_connects", r.origin_connects as f64, "count");
    out.metric("serve.origin_reuses", r.origin_reuses as f64, "count");
    out.metric("serve.origin_retries", r.origin_retries as f64, "count");
    out.metric(
        "serve.origin_reuse_ratio",
        ratio(r.origin_reuses, r.origin_reuses + r.origin_connects),
        "ratio",
    );
    // Residual: socket median minus the in-process path median, by route.
    let replay_t = &mut traced.generator.tally;
    for (route, name) in [
        (Route::Gate, "serve.residual_us.gate"),
        (Route::Page, "serve.residual_us.page"),
        (Route::Asset, "serve.residual_us.asset"),
    ] {
        let s = t.by_route.get_mut(&route).map(|s| s.p50());
        let p = replay_t.by_route.get_mut(&route).map(|s| s.p50());
        let us = match (s, p) {
            (Some(s), Some(p)) => (s - p) * 1e3,
            _ => 0.0,
        };
        out.metric(name, us, "us");
    }
    out.metric(
        "serve.residual_us",
        (t.all.samples().p50() - replay_t.all.samples().p50()) * 1e3,
        "us",
    );
    out.metric("gateway.served", st.served as f64, "count");
    out.metric("gateway.throttled", st.throttled as f64, "count");
    out.metric("gateway.blocked", st.blocked as f64, "count");
    out.metric("gateway.probe_requests", st.probe_requests as f64, "count");
    out.metric("gen.late_p99_ms", late_p99, "ms");
    out.metric("fail_ratio", ratio(t.failed, t.attempted), "ratio");
    let v = sock.verdicts;
    out.metric(
        "human_fp_ratio",
        ratio(v.humans_as_robot, v.humans),
        "ratio",
    );
    out.metric("e2e.samples", t.all.samples().count() as f64, "count");
    out.metric("e2e.p99_run_ms", quantile(&mut t.all.samples(), 0.99), "ms");
    out.metric(
        "e2e.page_p99_run_ms",
        quantile(&mut t.pages.samples(), 0.99),
        "ms",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        "%",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(work) = workload::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
    else {
        eprintln!("loadbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let run = if args.trace {
        traced(&work, &args)
    } else {
        end_to_end(&work, &args)
    };
    match run {
        Ok(mut report) => {
            report.correct = report.broken.is_empty();
            for why in &report.broken {
                eprintln!("loadbench: broken check: {why}");
            }
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::from(1)
        }
    }
}
