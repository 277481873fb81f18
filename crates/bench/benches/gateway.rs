//! Gateway front-door throughput: the cost of one `handle()` call end to
//! end (classify → one fused gate/serve/observe critical section), plus
//! the sharded session tracker's raw ingest rate at several shard
//! counts — the two paths the ROADMAP's scale items landed on. The
//! `beacon_redemption` row tracks the request class that used to
//! write-lock the global instrumenter before PR 4 made it shard-local;
//! `script_fetch` tracks the script generation a page defers to the
//! fetch of its `<script src>` probe.

use botwall_gateway::{Decision, Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_sessions::{SessionKey, SessionTracker, SimTime, TrackerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HTML: &str = "<html><head><title>b</title></head><body><p>payload</p></body></html>";

fn req(ip: u32, uri: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", "bench-agent/1.0")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

fn bench_gateway_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway_throughput");
    group.throughput(Throughput::Elements(1));

    // Fresh session per iteration: page fetch with full instrumentation.
    group.bench_function("handle_page_fresh_session", |b| {
        let gw = Gateway::builder().seed(42).build();
        let mut clock = SimTime::ZERO;
        let mut ip = 1u32;
        b.iter(|| {
            clock += 50;
            ip = ip.wrapping_add(1);
            let r = req(ip, "http://bench.example/index.html");
            black_box(gw.handle_with(&r, clock, |_| Origin::Page(HTML.into())))
        })
    });

    // Steady-state session: repeated ordinary fetches from one client
    // that already proved human via the mouse beacon (the fast path —
    // cached verdict, no new evidence, policy short-circuits to Allow).
    group.bench_function("handle_ordinary_steady_state", |b| {
        let gw = Gateway::builder().seed(43).build();
        let d = gw.handle_with(
            &req(7, "http://bench.example/index.html"),
            SimTime::ZERO,
            |_| Origin::Page(HTML.into()),
        );
        let Decision::Serve { manifest, .. } = d else {
            unreachable!("fresh sessions are served");
        };
        let beacon = manifest.unwrap().mouse_beacon.unwrap();
        let d = gw.handle(&req(7, &beacon.to_string()), SimTime::from_secs(1));
        assert!(
            matches!(d.verdict(), Some(v) if v.is_final()),
            "session must be proven human before the steady-state loop"
        );
        let mut clock = SimTime::from_secs(2);
        let mut i = 0u64;
        b.iter(|| {
            clock += 20;
            i += 1;
            let r = req(7, &format!("http://bench.example/p{}.html", i % 64));
            black_box(gw.handle_with(&r, clock, |_| {
                Origin::Response(Response::empty(StatusCode::OK))
            }))
        })
    });

    // Beacon redemption alone: the request that used to write-lock the
    // global instrumenter token table now redeems inside its session's
    // one shard critical section. Page issuance happens outside the
    // measured region (iter_custom), so the row isolates redemption.
    group.bench_function("beacon_redemption", |b| {
        let gw = Gateway::builder().seed(45).build();
        let mut clock = SimTime::ZERO;
        let mut ip = 1u32;
        b.iter_custom(|iters| {
            use std::time::{Duration, Instant};
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                clock += 50;
                ip = ip.wrapping_add(1);
                let page = req(ip, "http://bench.example/index.html");
                let d = gw.handle_with(&page, clock, |_| Origin::Page(HTML.into()));
                let Decision::Serve { manifest, .. } = d else {
                    unreachable!("fresh sessions are served");
                };
                let beacon = manifest.unwrap().mouse_beacon.unwrap();
                let r = req(ip, &beacon.to_string());
                let start = Instant::now();
                black_box(gw.handle(&r, clock));
                elapsed += start.elapsed();
            }
            elapsed
        })
    });

    // Script fetch alone: a page stores only its script's recipe, so the
    // script is generated here, when its probe is fetched. Page issuance
    // happens outside the measured region (iter_custom).
    group.bench_function("script_fetch", |b| {
        let gw = Gateway::builder().seed(47).build();
        let mut clock = SimTime::ZERO;
        let mut ip = 1u32;
        b.iter_custom(|iters| {
            use std::time::{Duration, Instant};
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                clock += 50;
                ip = ip.wrapping_add(1);
                let page = req(ip, "http://bench.example/index.html");
                let d = gw.handle_with(&page, clock, |_| Origin::Page(HTML.into()));
                let Decision::Serve { manifest, .. } = d else {
                    unreachable!("fresh sessions are served");
                };
                let js = manifest.unwrap().js_file.unwrap();
                let r = req(ip, &js.to_string());
                let start = Instant::now();
                let d = black_box(gw.handle(&r, clock));
                elapsed += start.elapsed();
                assert!(
                    matches!(d, Decision::Serve { probe: true, .. }),
                    "script fetches are served as probes"
                );
            }
            elapsed
        })
    });

    // Probe traffic: beacon issue + redemption through the front door.
    group.bench_function("handle_probe_roundtrip", |b| {
        let gw = Gateway::builder().seed(44).build();
        let mut clock = SimTime::ZERO;
        let mut ip = 1u32;
        b.iter(|| {
            clock += 50;
            ip = ip.wrapping_add(1);
            let page = req(ip, "http://bench.example/index.html");
            let d = gw.handle_with(&page, clock, |_| Origin::Page(HTML.into()));
            let Decision::Serve { manifest, .. } = d else {
                unreachable!("fresh sessions are served");
            };
            let css = manifest.unwrap().css_probe.unwrap();
            black_box(gw.handle(&req(ip, &css.to_string()), clock))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("sharded_tracker_ingest");
    group.throughput(Throughput::Elements(1));
    for shards in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("observe", shards),
            &shards,
            |b, &shards| {
                let tracker = SessionTracker::new(TrackerConfig {
                    shards,
                    ..TrackerConfig::default()
                });
                let resp = Response::empty(StatusCode::OK);
                let mut clock = SimTime::ZERO;
                let mut i = 0u32;
                b.iter(|| {
                    clock += 5;
                    i = i.wrapping_add(1);
                    let r = req(i % 4096, "http://bench.example/x.html");
                    black_box(tracker.observe(&r, &resp, clock))
                })
            },
        );
    }
    group.finish();
}

/// Proves a session human (page + mouse beacon) so its steady-state
/// requests are pure origin serves, and returns its beacon-primed state.
fn prove_human(gw: &Gateway, ip: u32, clock: SimTime) {
    let d = gw.handle_with(&req(ip, "http://bench.example/index.html"), clock, |_| {
        Origin::Page(HTML.into())
    });
    let Decision::Serve { manifest, .. } = d else {
        unreachable!("fresh sessions are served");
    };
    let beacon = manifest.unwrap().mouse_beacon.unwrap();
    let d = gw.handle(&req(ip, &beacon.to_string()), clock + 10);
    assert!(matches!(d.verdict(), Some(v) if v.is_final()));
}

/// The PR-5 head-of-line benchmark: one session's origin sleeps per
/// fetch (0 / 100µs / 1ms) in a background thread while the measured
/// session — pinned to the SAME tracker shard — serves ordinary origin
/// requests. Under the PR-4 fused path the neighbor's throughput would
/// collapse to the origin latency; with the lease/commit protocol no
/// lock spans the sleep, so the neighbor row should stay within noise
/// of the plain steady-state row at every latency.
fn bench_slow_origin(c: &mut Criterion) {
    let mut group = c.benchmark_group("slow_origin");
    group.throughput(Throughput::Elements(1));
    for (label, latency) in [
        ("0", Duration::ZERO),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
    ] {
        group.bench_with_input(
            BenchmarkId::new("same_shard_neighbor", label),
            &latency,
            |b, &latency| {
                let gw = Arc::new(Gateway::builder().seed(46).build());
                let shards = gw.stats().shard_count as u64;
                let shard_of = |ip: u32| {
                    SessionKey::of(&req(ip, "http://bench.example/x.html")).shard_hash() % shards
                };
                let slow_ip = 90_000u32;
                let neighbor_ip = (90_001..99_999u32)
                    .find(|ip| shard_of(*ip) == shard_of(slow_ip))
                    .expect("same-shard neighbor exists");
                prove_human(&gw, slow_ip, SimTime::ZERO);
                prove_human(&gw, neighbor_ip, SimTime::ZERO);

                let stop = Arc::new(AtomicBool::new(false));
                let slow = {
                    let gw = Arc::clone(&gw);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut clock = SimTime::from_secs(1);
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            clock += 20;
                            i += 1;
                            let r = req(slow_ip, &format!("http://bench.example/s{}.html", i % 64));
                            gw.handle_with(&r, clock, |_| {
                                if latency > Duration::ZERO {
                                    std::thread::sleep(latency);
                                }
                                Origin::Response(Response::empty(StatusCode::OK))
                            });
                        }
                    })
                };

                let mut clock = SimTime::from_secs(1);
                let mut i = 0u64;
                b.iter(|| {
                    clock += 20;
                    i += 1;
                    let r = req(
                        neighbor_ip,
                        &format!("http://bench.example/n{}.html", i % 64),
                    );
                    black_box(gw.handle_with(&r, clock, |_| {
                        Origin::Response(Response::empty(StatusCode::OK))
                    }))
                });
                stop.store(true, Ordering::Relaxed);
                slow.join().unwrap();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gateway_throughput, bench_slow_origin);
criterion_main!(benches);
