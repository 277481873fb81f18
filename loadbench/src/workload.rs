//! Workloads and the request stream they generate.
//!
//! A workload is a fixed ring of session keys (User-Agent strings; the
//! IP is always 127.0.0.1), each owned by one agent kind of the repo's
//! calibrated population (`Population::table1`, the shape of the
//! paper's Table 1), plus size distributions for pages and assets.
//! Visits arrive open loop: a Poisson process at the rate that makes
//! the offered request rate come out at the target, each visit taken by
//! the next key of a seeded round-robin over the ring. A key's request
//! rate therefore depends on the offered rate and the ring size, never
//! on how fast the server answers.
//!
//! A visit is a script with fixed due times relative to its start.
//! Requests whose URL the client can only learn from an earlier answer
//! (the probes of an instrumented page, the beacon inside the generated
//! script, the links a crawler follows) fall due at their scripted time
//! or when that answer arrives, whichever is later: the wait for the
//! answer is the answered request's latency and is not counted twice.
//!
//! [`Generator`] is transport-agnostic: the socket driver and the
//! in-process replay both pull requests from it and hand answers back,
//! and it checks every answer against the request it belongs to.

use crate::fixture::{self, BodySpec};
use crate::http::{self, Parsed};
use crate::stats::{DueQueue, Ladder, Samples, Timeline};
use botwall_agents::robots::crawler::CrawlerConfig;
use botwall_agents::robots::smart_bot::SmartBotConfig;
use botwall_agents::robots::vuln_scanner::PROBE_PATHS;
use botwall_agents::robots::{
    ClickFraudBot, DdosZombie, EmailHarvester, OfflineBrowser, PasswordCracker, PoliteSpider,
    ReferrerSpammer, VulnScanner,
};
use botwall_agents::{AgentKind, Population};
use botwall_http::UserAgent;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Origin messages (head, framing and body) above this size answer 502
/// on the front door's buffered (non-HTML) path: its whole-message cap.
pub const BUFFERED_CAP: usize = 1024 * 1024;

const MS: u64 = 1_000_000;

/// How a ring key behaves on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Client {
    /// A browser with a person behind it: page, probes, assets, script,
    /// mouse beacon.
    Human,
    /// Fetches HTML only and follows every `<a href>` on a page, decoys
    /// included.
    Crawler,
    /// Follows links and also downloads embedded script and image
    /// objects, but never runs the script.
    Mirror,
    /// Fires page requests on a fixed beat without reading the answers.
    Scraper,
}

impl Client {
    /// Whether this client is a robot.
    pub fn robot(self) -> bool {
        self != Client::Human
    }
}

/// The owner of one ring key: an agent kind of `Population::table1`,
/// the behaviour it maps to here, and its pace and session length,
/// both the defaults of the agent's own model in `botwall-agents`.
#[derive(Debug, Clone, Copy)]
pub struct Owner {
    /// The agent kind it was sampled as.
    pub kind: AgentKind,
    /// How it behaves on the wire.
    pub client: Client,
    /// Gap between a robot's requests, in ms (the model's `delay_ms`).
    pub gap_ms: u64,
    /// Requests in a robot's session (the model's page budget, or its
    /// request, click or attempt count).
    pub budget: u64,
}

impl Owner {
    /// Maps a `Population::table1` kind onto the three robot behaviours
    /// the generator plays, with the kind's own pace and budget.
    fn of(kind: AgentKind) -> Owner {
        use Client::{Crawler, Human, Mirror, Scraper};
        let vuln = VulnScanner::default();
        let (client, gap_ms, budget) = match kind {
            AgentKind::Human(_) => (Human, 0, 0),
            // HTML only, following links.
            AgentKind::Crawler => {
                let c = CrawlerConfig::default();
                (Crawler, c.delay_ms, c.page_budget)
            }
            AgentKind::PoliteSpider => {
                let c = PoliteSpider::default();
                (Crawler, c.delay_ms, c.page_budget)
            }
            AgentKind::EmailHarvester => {
                let c = EmailHarvester::default();
                (Crawler, c.delay_ms, c.page_budget)
            }
            // Pages and their embedded objects.
            AgentKind::OfflineBrowser => {
                let c = OfflineBrowser::default();
                (Mirror, c.delay_ms, c.page_budget)
            }
            AgentKind::SmartBot => {
                let c = SmartBotConfig::default();
                (Mirror, c.delay_ms, c.pages)
            }
            // Requests on a beat, answers unread.
            AgentKind::ReferrerSpammer => {
                let c = ReferrerSpammer::default();
                (Scraper, c.delay_ms, c.requests)
            }
            AgentKind::ClickFraud => {
                let c = ClickFraudBot::default();
                (Scraper, c.delay_ms, c.clicks)
            }
            AgentKind::VulnScanner => (
                Scraper,
                vuln.delay_ms,
                vuln.rounds * PROBE_PATHS.len() as u32,
            ),
            AgentKind::PasswordCracker => {
                let c = PasswordCracker::default();
                (Scraper, c.delay_ms, c.attempts)
            }
            AgentKind::DdosZombie => {
                let c = DdosZombie::default();
                (Scraper, c.delay_ms, c.requests)
            }
            other => unreachable!("Population::table1 has no {other:?}"),
        };
        Owner {
            kind,
            client,
            gap_ms: gap_ms.max(1),
            budget: u64::from(budget).max(1),
        }
    }

    /// Requests one visit of this owner sends: a human's page, probes,
    /// beacons and `assets`; a robot's session budget, cut to what its
    /// pace fits into [`ROBOT_VISIT_MS`].
    fn visit_len(&self, assets: usize) -> usize {
        if self.client.robot() {
            self.budget.min(1 + ROBOT_VISIT_MS / self.gap_ms) as usize
        } else {
            6 + assets
        }
    }
}

/// Seed of the ring's owner draw: fixed, so a key belongs to the same
/// agent kind in every run and under every `--seed`.
const RING_SEED: u64 = 20_060_106;

/// Draws the owners of a ring of `size` keys from `Population::table1`.
/// With `humans` set, that share of keys is human and the rest follow
/// the table's robot mix; without it the table's own human share holds.
fn ring(size: usize, humans: Option<f64>) -> Vec<Owner> {
    let table1 = Population::table1();
    let mut rng = ChaCha8Rng::seed_from_u64(RING_SEED);
    (0..size)
        .map(|_| {
            let human = humans.map(|share| rng.gen_bool(share));
            loop {
                let owner = Owner::of(table1.sample(&mut rng).kind());
                match human {
                    None => break owner,
                    Some(true) if !owner.client.robot() => break owner,
                    Some(false) if owner.client.robot() => break owner,
                    _ => {}
                }
            }
        })
        .collect()
}

/// What a request is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An HTML page a visit starts with.
    Page,
    /// A non-HTML asset embedded in a page.
    Asset,
    /// The injected CSS probe.
    Css,
    /// The generated script.
    Js,
    /// The transparent pixel over the hidden link.
    Pixel,
    /// The beacon the script fetches when it runs.
    Agent,
    /// The beacon the `onmousemove` handler fetches.
    Mouse,
    /// A link a robot followed (visible, hidden, or from its frontier).
    Link,
}

/// A size distribution, sampled by inverse CDF.
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Log-uniform on `[lo, hi]`.
    LogUniform {
        /// Smallest size in bytes.
        lo: f64,
        /// Largest size in bytes.
        hi: f64,
    },
    /// Bounded Pareto on `[lo, hi]` with tail index `alpha`.
    Pareto {
        /// Smallest size in bytes.
        lo: f64,
        /// Largest size in bytes.
        hi: f64,
        /// Tail index.
        alpha: f64,
    },
}

impl SizeDist {
    /// The size at quantile `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        let x = match *self {
            SizeDist::LogUniform { lo, hi } => lo * (hi / lo).powf(u),
            SizeDist::Pareto { lo, hi, alpha } => {
                let r = (lo / hi).powf(alpha);
                lo / (1.0 - u * (1.0 - r)).powf(1.0 / alpha)
            }
        };
        x.round() as usize
    }

    /// Share of draws above `size`.
    pub fn share_above(&self, size: f64) -> f64 {
        match *self {
            SizeDist::LogUniform { lo, hi } => ((hi / size).ln() / (hi / lo).ln()).clamp(0.0, 1.0),
            SizeDist::Pareto { lo, hi, alpha } => {
                if size >= hi {
                    return 0.0;
                }
                let r = (lo / hi).powf(alpha);
                (((lo / size).powf(alpha) - r) / (1.0 - r)).clamp(0.0, 1.0)
            }
        }
    }
}

/// Stratified draws: every block of `m` consecutive draws takes one
/// point from each of `m` equal-probability strata, in seeded order.
/// A run's size mix — and so its share of oversize bodies — then hardly
/// depends on the seed.
#[derive(Debug)]
struct Strata {
    order: Vec<usize>,
    next: usize,
    rng: ChaCha8Rng,
}

impl Strata {
    fn new(m: usize, rng: ChaCha8Rng) -> Strata {
        Strata {
            order: (0..m).collect(),
            next: m,
            rng,
        }
    }

    fn draw(&mut self) -> f64 {
        if self.next == self.order.len() {
            let mut order = std::mem::take(&mut self.order);
            order.shuffle(&mut self.rng);
            self.order = order;
            self.next = 0;
        }
        let stratum = self.order[self.next];
        self.next += 1;
        (stratum as f64 + self.rng.gen::<f64>()) / self.order.len() as f64
    }
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its name on the command line.
    pub name: &'static str,
    /// Owner of each ring key; the ring's size is how many distinct
    /// session keys the workload ever uses.
    pub owners: Vec<Owner>,
    /// HTML page sizes.
    pub pages: SizeDist,
    /// Share of pages the origin sends chunked.
    pub chunked_share: f64,
    /// Assets a human fetches per page.
    pub assets_per_visit: usize,
    /// Asset sizes.
    pub assets: SizeDist,
    /// Asset file types.
    pub asset_exts: &'static [&'static str],
    /// The fixed nominal offered rate, in requests per second.
    pub nominal_rps: f64,
    /// p99 latency limit for the `max_rps` ladder, in ms.
    pub limit_ms: f64,
    /// The offered-rate ladder `max_rps` climbs.
    pub ladder: Ladder,
}

/// Longest a robot visit lasts, first request to last. Below the 5 s
/// the policy's robot token bucket (0.2 tokens/s) takes to earn one
/// request back, so no throttled robot's visit straddles a refill: its
/// answers do not hinge on sub-millisecond timing, and the socket run
/// and the replay answer it alike.
const ROBOT_VISIT_MS: u64 = 4_000;
/// Requests falling due this long after the arrivals end are still
/// sent: every human visit completes, long robot visits are cut.
const TAIL_NS: u64 = 1_000 * MS;

/// The offered-rate ladder from `base`: 31 rungs 8% apart, 20× in all,
/// so the binary search takes five probes.
fn ladder(base: f64) -> Ladder {
    Ladder {
        base,
        ratio: 1.08,
        rungs: 31,
    }
}

/// The three workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "browse",
            owners: ring(8000, Some(0.9)),
            pages: SizeDist::LogUniform {
                lo: 4096.0,
                hi: 32768.0,
            },
            chunked_share: 0.5,
            assets_per_visit: 3,
            assets: SizeDist::LogUniform {
                lo: 1024.0,
                hi: 16384.0,
            },
            asset_exts: &["png", "css", "js", "jpg"],
            nominal_rps: 10000.0,
            limit_ms: 50.0,
            ladder: ladder(10_000.0),
        },
        Workload {
            name: "robots",
            owners: ring(40_000, None),
            pages: SizeDist::LogUniform {
                lo: 2048.0,
                hi: 8192.0,
            },
            chunked_share: 0.5,
            assets_per_visit: 2,
            assets: SizeDist::LogUniform {
                lo: 1024.0,
                hi: 8192.0,
            },
            asset_exts: &["png", "css", "js"],
            nominal_rps: 12000.0,
            limit_ms: 50.0,
            ladder: ladder(8000.0),
        },
        Workload {
            name: "bigpages",
            owners: ring(4000, Some(0.96)),
            pages: SizeDist::LogUniform {
                lo: 262_144.0,
                hi: 4_194_304.0,
            },
            chunked_share: 0.5,
            assets_per_visit: 3,
            assets: SizeDist::Pareto {
                lo: 4096.0,
                hi: 4_194_304.0,
                alpha: 0.7,
            },
            asset_exts: &["png", "jpg"],
            nominal_rps: 800.0,
            limit_ms: 200.0,
            ladder: ladder(1000.0),
        },
    ]
}

impl Workload {
    /// Ring size: how many distinct session keys the workload uses.
    pub fn ring(&self) -> usize {
        self.owners.len()
    }

    /// The client type owning ring key `i`.
    pub fn client(&self, i: usize) -> Client {
        self.owners[i].client
    }

    /// The User-Agent string of ring key `i`: browser-like for every
    /// client type, so only behaviour tells robots apart.
    pub fn user_agent(&self, i: usize) -> String {
        format!(
            "Mozilla/5.0 (X11; Linux x86_64; rv:1.8) Gecko/20060101 Firefox/1.5 {}-{i}",
            self.name
        )
    }

    /// Mean requests per visit over the ring's owners.
    fn requests_per_visit(&self) -> f64 {
        let total: usize = self
            .owners
            .iter()
            .map(|o| o.visit_len(self.assets_per_visit))
            .sum();
        total as f64 / self.ring() as f64
    }

    /// Share of ring keys owned by humans.
    fn human_share(&self) -> f64 {
        let humans = self.owners.iter().filter(|o| !o.client.robot()).count();
        humans as f64 / self.ring() as f64
    }

    /// Longest visit of any owner, first request to last, in ns.
    fn longest_visit_ns(&self) -> u64 {
        self.owners
            .iter()
            .filter(|o| o.client.robot())
            .map(|o| (o.visit_len(0) as u64 - 1) * o.gap_ms * MS)
            .max()
            .unwrap_or(0)
    }

    /// The ring's owners by agent kind name: how many keys each has.
    pub fn mix(&self) -> BTreeMap<&'static str, usize> {
        let mut mix = BTreeMap::new();
        for o in &self.owners {
            *mix.entry(o.kind.name()).or_default() += 1;
        }
        mix
    }

    /// Expected share of requests that are non-HTML bodies over the
    /// buffered cap (they answer 502 on the front door's buffered path).
    pub fn oversize_share(&self) -> f64 {
        let assets = self.human_share() * self.assets_per_visit as f64;
        assets * self.assets.share_above(BUFFERED_CAP as f64) / self.requests_per_visit()
    }
}

/// A request ready to go on the wire.
#[derive(Debug)]
pub struct Outgoing {
    /// Index into the generator's request log.
    pub id: usize,
    /// Which client connection carries it.
    pub conn: usize,
    /// The request bytes.
    pub bytes: Vec<u8>,
}

/// One issued request.
#[derive(Debug)]
pub struct Req {
    /// The visit it belongs to.
    pub visit: usize,
    /// What it is for.
    pub kind: Kind,
    /// Its path (and query).
    pub path: String,
    /// When it fell due, ns from the stream's start.
    pub due_ns: u64,
}

#[derive(Debug)]
struct Visit {
    key: usize,
    t0: u64,
    handler: Option<String>,
    /// Paths drawn when the visit started, used once an answer arrives:
    /// a human's assets, a crawler's or mirror's frontier pages.
    drawn: Vec<String>,
}

#[derive(Debug)]
struct Plan {
    visit: usize,
    kind: Kind,
    path: String,
}

/// How a request ended, by the path its answer took through the front
/// door. Used to compare the socket run with the replay kind by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// Answered by the gate alone (probes, beacons, 403/429).
    Gate,
    /// A streamed, instrumented HTML page.
    Page,
    /// A buffered origin response.
    Asset,
}

/// Everything the generator learned about the run's answers.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: transport errors, timeouts, 5xx,
    /// mis-framed or mis-marked bodies, rejections of humans.
    pub failed: u64,
    /// Failures of the known class: a non-HTML body over the buffered
    /// cap answering 502.
    pub oversize_502: u64,
    /// The first few failures outside the known class; any one breaks
    /// the run.
    pub broken_why: Vec<String>,
    /// Latency of every measured request (due → last body byte).
    pub all: Timeline,
    /// Latency of origin page requests answered with the page, and of
    /// failed ones.
    pub pages: Timeline,
    /// Latency by route (measured requests that succeeded).
    pub by_route: BTreeMap<Route, Samples>,
    /// Status histogram of every answered request.
    pub statuses: BTreeMap<u16, u64>,
    /// Requests that were their key's first in the stream.
    pub first_contacts: u64,
    /// Order-free digest of every answer: the sum of a hash of each
    /// request's path with its answer's status and body length. Two
    /// runs of one stream that answered alike have the same digest.
    pub answers: u64,
}

/// The stream generator and answer checker for one run.
///
/// Inside, times run on the stream's clock, which starts the longest
/// robot visit before the run does: visits already under way when the
/// run starts are played unsent, so a run (and each short ladder probe)
/// starts in the steady state. Every time it takes or gives is on the
/// run's clock.
pub struct Generator {
    work: Workload,
    conns: usize,
    rng: ChaCha8Rng,
    page_sizes: Strata,
    asset_sizes: Strata,
    order: Vec<usize>,
    visits_started: usize,
    next_visit_ns: u64,
    visit_gap_mean_ns: f64,
    /// The run's start on the stream's clock.
    lead_ns: u64,
    /// How long after the arrivals end requests are still sent.
    tail_ns: u64,
    warmup_ns: u64,
    end_ns: u64,
    queue: DueQueue<Plan>,
    visits: Vec<Visit>,
    /// Every request issued, by id.
    reqs: std::collections::HashMap<usize, Req>,
    next_id: usize,
    touched: Vec<bool>,
    outstanding: usize,
    arrivals_stopped: bool,
    /// What the answers added up to.
    pub tally: Tally,
}

/// Exponentially distributed with mean `mean`.
fn exp(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

impl Generator {
    /// A stream of visits arriving over `[0, end_ns)` at `rps` offered
    /// requests per second; requests due before `warmup_ns` are checked
    /// but not timed.
    pub fn new(
        work: &Workload,
        seed: u64,
        rps: f64,
        warmup_ns: u64,
        end_ns: u64,
        conns: usize,
    ) -> Generator {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..work.ring()).collect();
        order.shuffle(&mut rng);
        let page_sizes = Strata::new(256, ChaCha8Rng::seed_from_u64(rng.next_u64() ^ 1));
        let asset_sizes = Strata::new(256, ChaCha8Rng::seed_from_u64(rng.next_u64() ^ 2));
        let visit_gap_mean_ns = 1e9 * work.requests_per_visit() / rps;
        let lead_ns = work.longest_visit_ns();
        let first_visit_ns = exp(&mut rng, visit_gap_mean_ns) as u64;
        let mut g = Generator {
            work: work.clone(),
            conns,
            rng,
            page_sizes,
            asset_sizes,
            order,
            visits_started: 0,
            next_visit_ns: first_visit_ns,
            visit_gap_mean_ns,
            lead_ns,
            tail_ns: TAIL_NS,
            warmup_ns,
            end_ns,
            queue: DueQueue::default(),
            visits: Vec::new(),
            reqs: std::collections::HashMap::new(),
            next_id: 0,
            touched: vec![false; work.ring()],
            outstanding: 0,
            arrivals_stopped: false,
            tally: Tally::default(),
        };
        g.lead_in();
        g
    }

    /// Plays the stream up to the run's start without sending anything.
    /// A skipped page teaches its client nothing, except that a robot
    /// goes on to fetch the frontier it drew.
    fn lead_in(&mut self) {
        while let Some(t) = self.next_event().filter(|&t| t < self.lead_ns) {
            self.start_visits(t);
            while let Some((due, plan)) = self.queue.pop_before(t + 1) {
                let visit = plan.visit;
                if plan.kind == Kind::Page && self.work.client(self.visits[visit].key).robot() {
                    let frontier = std::mem::take(&mut self.visits[visit].drawn);
                    self.schedule_links(visit, due, frontier);
                }
            }
        }
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.work
    }

    /// Ring keys the stream touched, with their client type.
    pub fn touched_keys(&self) -> impl Iterator<Item = (usize, Client)> + '_ {
        (0..self.work.ring())
            .filter(|&i| self.touched[i])
            .map(|i| (i, self.work.client(i)))
    }

    /// Whether visits may still start at stream time `t`.
    fn arriving(&self, t: u64) -> bool {
        t < self.lead_ns + self.end_ns && !self.arrivals_stopped
    }

    /// Ends the arrival process: no further visit starts (the system is
    /// overloaded and the run has already failed its latency limit).
    pub fn stop_arrivals(&mut self) {
        self.arrivals_stopped = true;
    }

    /// Whether [`Generator::stop_arrivals`] was called.
    pub fn arrivals_stopped(&self) -> bool {
        self.arrivals_stopped
    }

    /// The next visit start or queued request, on the stream's clock.
    /// Requests due later than the tail after the arrivals end are
    /// never sent.
    fn next_event(&self) -> Option<u64> {
        let visit = self
            .arriving(self.next_visit_ns)
            .then_some(self.next_visit_ns);
        let queued = self.queue.next_due().filter(|&due| due < self.cutoff());
        match (visit, queued) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Stream time from which queued requests are dropped unsent.
    fn cutoff(&self) -> u64 {
        self.lead_ns + self.end_ns + self.tail_ns
    }

    /// Sends nothing that falls due after the arrivals end, for a run
    /// whose verdicts are not read.
    pub fn drop_tail(&mut self) {
        self.tail_ns = 0;
    }

    /// The earliest time a request could next be due.
    pub fn next_due(&self) -> Option<u64> {
        self.next_event().map(|t| t.saturating_sub(self.lead_ns))
    }

    /// Whether every request has gone out and been answered, and no
    /// more will fall due.
    pub fn finished(&self) -> bool {
        self.next_due().is_none() && self.outstanding == 0
    }

    /// When unanswered request `id` fell due.
    pub fn due_ns(&self, id: usize) -> u64 {
        self.reqs[&id].due_ns
    }

    /// 99th-percentile lateness of the generator, in ms.
    pub fn late_p99_ms(&self) -> f64 {
        self.queue.late_p99_ms()
    }

    /// Starts every visit arriving by stream time `now`.
    fn start_visits(&mut self, now: u64) {
        while self.next_visit_ns <= now && self.arriving(self.next_visit_ns) {
            let t0 = self.next_visit_ns;
            self.start_visit(t0);
            self.next_visit_ns = t0 + exp(&mut self.rng, self.visit_gap_mean_ns).max(1.0) as u64;
        }
    }

    /// The next request due at `now_ns`, if any.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<Outgoing> {
        let now = now_ns + self.lead_ns;
        self.start_visits(now);
        if self.queue.next_due()? >= self.cutoff() {
            return None;
        }
        let (due, plan) = self.queue.pop_due(now)?;
        let visit = &self.visits[plan.visit];
        let key = visit.key;
        if !self.touched[key] {
            self.touched[key] = true;
            self.tally.first_contacts += 1;
        }
        let bytes = http::get(&plan.path, &self.work.user_agent(key));
        let id = self.next_id;
        self.next_id += 1;
        self.reqs.insert(
            id,
            Req {
                visit: plan.visit,
                kind: plan.kind,
                path: plan.path,
                due_ns: due - self.lead_ns,
            },
        );
        self.outstanding += 1;
        self.tally.attempted += 1;
        Some(Outgoing {
            id,
            conn: key % self.conns,
            bytes,
        })
    }

    fn page_path(&mut self) -> String {
        let size = self.work.pages.at(self.page_sizes.draw());
        let chunked = self.rng.gen::<f64>() < self.work.chunked_share;
        fixture::path('p', self.rng.next_u64() >> 32, size, chunked, "html")
    }

    fn asset_path(&mut self) -> String {
        let size = self.work.assets.at(self.asset_sizes.draw());
        let ext = self.work.asset_exts[self.rng.gen_range(0..self.work.asset_exts.len())];
        let chunked = self.rng.gen::<f64>() < 0.5;
        fixture::path('a', self.rng.next_u64() >> 32, size, chunked, ext)
    }

    /// Starts a visit, drawing every random choice it will need now, in
    /// arrival order, so the stream does not depend on when answers
    /// arrive (the socket run and the replay then send the same one).
    fn start_visit(&mut self, t0: u64) {
        let key = self.order[self.visits_started % self.order.len()];
        self.visits_started += 1;
        let visit = self.visits.len();
        let page = self.page_path();
        let owner = self.work.owners[key];
        let drawn: Vec<String> = match owner.client {
            Client::Human => (0..self.work.assets_per_visit)
                .map(|_| self.asset_path())
                .collect(),
            _ => (1..owner.visit_len(0)).map(|_| self.page_path()).collect(),
        };
        self.visits.push(Visit {
            key,
            t0,
            handler: None,
            drawn: Vec::new(),
        });
        self.queue.push(
            t0,
            Plan {
                visit,
                kind: Kind::Page,
                path: page,
            },
        );
        if owner.client == Client::Scraper {
            // Pages on its beat, never read.
            self.schedule_links(visit, t0, drawn);
        } else {
            self.visits[visit].drawn = drawn;
        }
    }

    /// Schedules a request the client learned of from an answer that
    /// arrived at stream time `ready`: due at its scripted offset into
    /// the visit, or as soon as the client could know of it, whichever
    /// is later. The wait for that answer is the answered request's
    /// latency, not this one's.
    fn schedule(&mut self, visit: usize, ready: u64, at_ms: u64, kind: Kind, path: String) {
        let due = (self.visits[visit].t0 + at_ms * MS).max(ready);
        self.queue.push(due, Plan { visit, kind, path });
    }

    /// Schedules a robot's links one request gap apart from the visit's
    /// start, none before stream time `ready`.
    fn schedule_links(&mut self, visit: usize, ready: u64, links: Vec<String>) {
        let gap = self.work.owners[self.visits[visit].key].gap_ms;
        for (j, path) in links.into_iter().enumerate() {
            self.schedule(visit, ready, gap * (j as u64 + 1), Kind::Link, path);
        }
    }

    /// Takes the answer to request `id`, finished at `done_ns`: checks
    /// it, times it, and schedules whatever the client does next.
    pub fn answer(&mut self, id: usize, answer: Result<Parsed, String>, done_ns: u64) {
        self.outstanding -= 1;
        let req = self
            .reqs
            .remove(&id)
            .expect("each request is answered once");
        let client = self.work.client(self.visits[req.visit].key);
        let measured = (self.warmup_ns..self.end_ns).contains(&req.due_ns);
        let due = req.due_ns;
        let outcome = match &answer {
            Ok(parsed) => {
                *self.tally.statuses.entry(parsed.status).or_default() += 1;
                self.tally.answers = self.tally.answers.wrapping_add(answer_hash(&req, parsed));
                check(client, &req, parsed)
            }
            Err(why) => Check::Broken(format!("{}: {why}", req.path)),
        };
        let ms = done_ns.saturating_sub(req.due_ns) as f64 / 1e6;
        // A request for an origin page: what a visitor waits for when
        // it is answered with the page (robots' 403/429 are not).
        let page = matches!(req.kind, Kind::Page | Kind::Link) && fixture::origin_path(&req.path);
        match outcome {
            Check::Ok => {
                if measured {
                    let t = &mut self.tally;
                    t.all.push(due, ms);
                    let route = route(answer.as_ref().expect("checked answer"));
                    if page && route == Route::Page {
                        t.pages.push(due, ms);
                    }
                    t.by_route.entry(route).or_default().push(ms);
                }
            }
            Check::Oversize | Check::Broken(_) => {
                self.tally.failed += 1;
                if let Check::Broken(why) = outcome {
                    if self.tally.broken_why.len() < 5 {
                        self.tally.broken_why.push(why);
                    }
                } else {
                    self.tally.oversize_502 += 1;
                }
                if measured {
                    let t = &mut self.tally;
                    t.all.miss(due);
                    if page {
                        t.pages.miss(due);
                    }
                }
            }
        }
        if let Ok(parsed) = answer {
            let ready = done_ns.saturating_add(self.lead_ns);
            self.follow(client, &req, &parsed, ready);
        }
    }

    /// Records that request `id` never got an answer.
    pub fn lost(&mut self, id: usize, why: &str) {
        self.answer(id, Err(why.to_string()), u64::MAX);
    }

    /// The span of due times whose requests are timed: after warm-up,
    /// before the arrivals end.
    pub fn measured_span(&self) -> (u64, u64) {
        (self.warmup_ns, self.end_ns)
    }

    /// What the client does once `req` is answered at stream time
    /// `ready`.
    fn follow(&mut self, client: Client, req: &Req, parsed: &Parsed, ready: u64) {
        let visit = req.visit;
        match (client, req.kind) {
            (Client::Human, Kind::Page) if parsed.status == 200 => {
                let html = parsed.text();
                let Some(probes) = Probes::find(html) else {
                    return;
                };
                self.visits[visit].handler = Some(probes.handler);
                self.schedule(visit, ready, 1, Kind::Css, probes.css);
                self.schedule(visit, ready, 2, Kind::Js, probes.js);
                self.schedule(visit, ready, 3, Kind::Pixel, probes.pixel);
                let assets = std::mem::take(&mut self.visits[visit].drawn);
                for (j, path) in assets.into_iter().enumerate() {
                    self.schedule(visit, ready, 4 + j as u64, Kind::Asset, path);
                }
            }
            (Client::Human, Kind::Js) if parsed.status == 200 => {
                let script = parsed.text();
                let ua = self.work.user_agent(self.visits[visit].key);
                if let Some(agent) = agent_beacon(script) {
                    let path = format!("{agent}?agent={}&wd=0&pl=3", UserAgent::canonicalize(&ua));
                    self.schedule(visit, ready, 10, Kind::Agent, path);
                }
                let handler = self.visits[visit].handler.clone().unwrap_or_default();
                if let Some(mouse) = mouse_beacon(script, &handler) {
                    self.schedule(visit, ready, MOUSE_MS, Kind::Mouse, mouse);
                }
            }
            (Client::Crawler | Client::Mirror, Kind::Page) => {
                let html = if parsed.status == 200 {
                    parsed.text()
                } else {
                    ""
                };
                let mut targets = Vec::new();
                if client == Client::Mirror {
                    targets.extend(attr_values(html, "src=\""));
                }
                targets.extend(attr_values(html, "<a href=\""));
                // The frontier drawn at the start fills what the page
                // did not offer.
                let frontier = std::mem::take(&mut self.visits[visit].drawn);
                let links = frontier.len();
                targets.extend(frontier);
                targets.truncate(links);
                self.schedule_links(visit, ready, targets);
            }
            _ => {}
        }
    }
}

/// When a human's mouse beacon fires, ms into the visit.
const MOUSE_MS: u64 = 200;

/// One answer's contribution to [`Tally::answers`]: the request (its
/// origin path, or its visit and kind when the gateway made the path),
/// the answer's status, type and framing, and its body. Text bodies are
/// hashed whole with what the gateway draws from the session's clock-
/// seeded stream masked out (20-digit probe nonces, the page's handler
/// name); scripts, which that stream writes, count by status only;
/// other bodies by length and both edges.
fn answer_hash(req: &Req, parsed: &Parsed) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    if fixture::origin_path(&req.path) {
        req.path.hash(&mut h);
    } else {
        (req.visit, req.kind as u8).hash(&mut h);
    }
    (parsed.status, &parsed.content_type, parsed.chunked).hash(&mut h);
    if parsed.content_type.contains("javascript") {
        // Written by the session's stream: counted by status only.
    } else if parsed.content_type.starts_with("text/") {
        hash_text(parsed.text(), &mut h);
    } else {
        (parsed.body_len, &parsed.head, parsed.last(1024)).hash(&mut h);
    }
    h.finish()
}

/// Feeds a text body to `h` with the page's handler name cut out and
/// its probe nonces masked.
fn hash_text(text: &str, h: &mut impl std::hash::Hasher) {
    match Probes::handler(text).filter(|name| !name.is_empty()) {
        Some(name) => {
            for piece in text.split(name.as_str()) {
                hash_masking_nonces(piece.as_bytes(), h);
                h.write_u8(0);
            }
        }
        None => hash_masking_nonces(text.as_bytes(), h),
    }
}

/// Feeds `bytes` to `h` with every run of 16 or more digits as one `#`.
fn hash_masking_nonces(bytes: &[u8], h: &mut impl std::hash::Hasher) {
    let mut i = 0;
    while i < bytes.len() {
        let j = i + bytes[i..]
            .iter()
            .take_while(|b| !b.is_ascii_digit())
            .count();
        h.write(&bytes[i..j]);
        let k = j + bytes[j..].iter().take_while(|b| b.is_ascii_digit()).count();
        h.write(if k - j >= 16 { b"#" } else { &bytes[j..k] });
        i = k;
    }
}

enum Check {
    Ok,
    /// The known defect: a non-HTML body over the buffered cap.
    Oversize,
    Broken(String),
}

/// Which route through the front door an answer took.
pub fn route(parsed: &Parsed) -> Route {
    match parsed.status {
        200 if parsed.content_type == "text/html" && parsed.chunked => Route::Page,
        200 if parsed.head.starts_with(b"M:") || parsed.text().contains("<!--M:") => Route::Asset,
        _ => Route::Gate,
    }
}

/// Checks one answer against the request it answers.
fn check(client: Client, req: &Req, parsed: &Parsed) -> Check {
    let path = req.path.as_str();
    let origin = fixture::spec(path);
    let served_by_origin =
        matches!(req.kind, Kind::Page | Kind::Asset | Kind::Link) && fixture::origin_path(path);
    match parsed.status {
        200 => {}
        502 if req.kind == Kind::Asset
            && !origin.html()
            && fixture::message_len(path) > BUFFERED_CAP =>
        {
            return Check::Oversize
        }
        403 | 429 if client.robot() => return Check::Ok,
        status => {
            return Check::Broken(format!(
                "{path}: status {status} answered to a {client:?} {:?} request",
                req.kind
            ))
        }
    }
    if served_by_origin {
        if let Err(why) = check_marker(path, &origin, parsed) {
            return Check::Broken(format!("{path}: {why}"));
        }
    }
    if client == Client::Human {
        let ok = match req.kind {
            Kind::Page => Probes::find(parsed.text()).is_some(),
            Kind::Js => parsed.text().contains("function "),
            _ => true,
        };
        if !ok {
            return Check::Broken(format!("{path}: {:?} not instrumented", req.kind));
        }
    }
    Check::Ok
}

/// The body must be the one the origin made for this exact path.
fn check_marker(path: &str, origin: &BodySpec, parsed: &Parsed) -> Result<(), String> {
    if origin.html() {
        let marker = fixture::html_marker(path);
        let text = parsed.text();
        if !text.get(..512).unwrap_or(text).contains(&marker) {
            return Err("page does not open with its own marker".into());
        }
        let end = String::from_utf8_lossy(parsed.last(2048)).into_owned();
        if !end.contains(&marker) {
            return Err("page does not close with its own marker".into());
        }
        if parsed.body_len < origin.size {
            return Err(format!(
                "page of {} bytes, origin sent {}",
                parsed.body_len, origin.size
            ));
        }
    } else {
        if parsed.body_len != origin.size {
            return Err(format!(
                "body of {} bytes, origin sent {}",
                parsed.body_len, origin.size
            ));
        }
        if !parsed.head.starts_with(format!("M:{path}\n").as_bytes())
            || !parsed.tail.ends_with(format!("\nM:{path}").as_bytes())
        {
            return Err("body marker names another request".into());
        }
    }
    Ok(())
}

/// The probes an instrumented page carries.
struct Probes {
    css: String,
    js: String,
    pixel: String,
    handler: String,
}

impl Probes {
    fn find(html: &str) -> Option<Probes> {
        let probe = |ext: &str| {
            quoted(html, '"').find(|p| {
                p.ends_with(ext)
                    && p.len() == 22 + ext.len() - 1
                    && p[1..21].bytes().all(|b| b.is_ascii_digit())
            })
        };
        Some(Probes {
            css: probe(".css")?,
            js: probe(".js")?,
            pixel: probe(".gif")?,
            handler: Probes::handler(html)?,
        })
    }

    /// The page's `onmousemove` handler name.
    fn handler(html: &str) -> Option<String> {
        let name = html
            .split("onmousemove=\"return ")
            .nth(1)?
            .split('(')
            .next()?;
        Some(name.to_string())
    }
}

/// Every `quote`-delimited URL in `text`, reduced to its path: the shapes
/// a browser requests back.
fn quoted(text: &str, quote: char) -> impl Iterator<Item = String> + '_ {
    text.split(quote).skip(1).step_by(2).filter_map(to_path)
}

fn to_path(url: &str) -> Option<String> {
    if url.starts_with('/') {
        return Some(url.to_string());
    }
    let rest = url.split("://").nth(1)?;
    rest.find('/').map(|slash| rest[slash..].to_string())
}

/// Values of every `prefix...\"` attribute in `html`, as paths.
fn attr_values<'a>(html: &'a str, prefix: &'a str) -> impl Iterator<Item = String> + 'a {
    html.split(prefix)
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .filter_map(to_path)
}

/// The beacon the script fetches when it runs: the image source that
/// carries the `?agent=` report.
fn agent_beacon(script: &str) -> Option<String> {
    let line = script.lines().find(|l| l.contains("\"?agent=\""))?;
    quoted(line, '\'').next()
}

/// What a browser does on mouse movement: find the page's `onmousemove`
/// handler in the generated script and take the beacon URL it fetches.
fn mouse_beacon(script: &str, handler: &str) -> Option<String> {
    let body = script.split(&format!("function {handler}()")).nth(1)?;
    let body = body.split("function ").next().unwrap_or(body);
    quoted(body, '\'').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_draws_cover_every_stratum_once_per_block() {
        let mut s = Strata::new(8, ChaCha8Rng::seed_from_u64(3));
        let mut seen: Vec<usize> = (0..8).map(|_| (s.draw() * 8.0) as usize).collect();
        seen.sort();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn size_distributions_invert_their_tails() {
        let p = SizeDist::Pareto {
            lo: 4096.0,
            hi: 4_194_304.0,
            alpha: 0.7,
        };
        let share = p.share_above(BUFFERED_CAP as f64);
        let cut = p.at(1.0 - share) as f64;
        assert!((cut - BUFFERED_CAP as f64).abs() < 2.0, "{cut}");
        assert_eq!(p.at(0.0), 4096);
        let l = SizeDist::LogUniform {
            lo: 4096.0,
            hi: 32768.0,
        };
        assert_eq!(l.at(0.5), 11585);
        assert!((l.share_above(11585.0) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn one_seed_one_stream() {
        let work = &workloads()[0];
        let stream = |seed| {
            let mut g = Generator::new(work, seed, 2000.0, 0, 200 * MS, 2);
            let mut out = Vec::new();
            let mut now = 0;
            while let Some(due) = g.next_due() {
                now = now.max(due);
                while let Some(o) = g.pop_due(now) {
                    out.push((o.conn, o.bytes));
                }
            }
            out
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        assert!(stream(5).len() > 30);
    }

    fn by_name(name: &str) -> Workload {
        workloads().into_iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn rings_follow_the_table1_population() {
        let robots = by_name("robots");
        // Population::table1 is 23.5% human; its largest robot kinds
        // are referrer spammers (25%) and click fraud (12%).
        assert!((robots.human_share() - 0.235).abs() < 0.01);
        let mix = robots.mix();
        let share = |k: &str| mix[k] as f64 / robots.ring() as f64;
        assert!((share("referrer-spammer") - 0.25).abs() < 0.01);
        assert!((share("click-fraud") - 0.12).abs() < 0.01);
        let browse = by_name("browse");
        assert!((browse.human_share() - 0.9).abs() < 0.01);
        assert_eq!(robots.owners.len(), workloads()[1].owners.len());
        for o in robots.owners.iter().filter(|o| o.client.robot()) {
            let span = (o.visit_len(0) as u64 - 1) * o.gap_ms;
            assert!(span <= ROBOT_VISIT_MS, "{o:?}");
            assert!(o.visit_len(0) as u64 <= o.budget);
        }
    }

    #[test]
    fn owners_take_pace_and_budget_from_the_agent_models() {
        let zombie = Owner::of(AgentKind::DdosZombie);
        assert_eq!(
            (zombie.client, zombie.gap_ms, zombie.budget),
            (Client::Scraper, 10, 120)
        );
        let spider = Owner::of(AgentKind::PoliteSpider);
        assert_eq!((spider.client, spider.gap_ms), (Client::Crawler, 1000));
        // A one-second pace fits five requests into a four-second visit.
        assert_eq!(spider.visit_len(0), 5);
        assert_eq!(Owner::of(AgentKind::SmartBot).client, Client::Mirror);
    }

    #[test]
    fn a_run_starts_with_robot_visits_under_way() {
        let work = by_name("robots");
        let mut g = Generator::new(&work, 3, 4000.0, 0, 500 * MS, 2);
        let mut links = 0;
        let mut pages = 0;
        while let Some(o) = g.pop_due(20 * MS) {
            let text = String::from_utf8_lossy(&o.bytes).into_owned();
            if g.reqs[&o.id].kind == Kind::Link {
                links += 1;
            } else if text.contains(".html") {
                pages += 1;
            }
        }
        // In the first 20 ms at 4000 req/s: ~80 requests, most of them
        // from visits that began before the run did.
        assert!(links > pages, "{links} links, {pages} pages");
        assert!(g.late_p99_ms() < 20.0, "skipped requests are not late");
    }

    #[test]
    fn answer_digest_masks_only_the_gateways_clock_seeded_draws() {
        use std::hash::Hasher;
        let digest = |text: &str| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            hash_text(text, &mut h);
            h.finish()
        };
        let a = "<link href=\"/00017143919462470132.css\"> 4096 bytes";
        let b = "<link href=\"/00009086624391543220.css\"> 4096 bytes";
        let c = "<link href=\"/00009086624391543220.css\"> 4097 bytes";
        assert_eq!(digest(a), digest(b));
        assert_ne!(digest(b), digest(c));
        let page = |handler: &str| digest(&format!("<body onmousemove=\"return {handler}();\">"));
        assert_eq!(page("vnyri1"), page("vbazuri1"));
    }
}
