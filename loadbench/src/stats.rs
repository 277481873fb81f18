//! The benchmark's arithmetic: latency percentiles with failures counted
//! as misses, the geometric rate ladder and its search, and the
//! open-loop schedule with its lateness accounting. Everything here is
//! pure, so the unit tests below pin it without sockets.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The latency a failed request is reported at when a percentile lands
/// on it: failures rank above every measured time.
pub const MISS_MS: f64 = 10_000.0;

/// Latency samples of one class of requests. A failure is a miss: it
/// ranks above every measured time, so a percentile that lands on one
/// reads [`MISS_MS`].
#[derive(Debug, Default, Clone)]
pub struct Samples {
    times_ms: Vec<f64>,
    misses: usize,
    sorted: bool,
}

impl Samples {
    /// Records one answered request.
    pub fn push(&mut self, ms: f64) {
        self.times_ms.push(ms);
        self.sorted = false;
    }

    /// Records one failed request.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Samples recorded, misses included.
    pub fn count(&self) -> usize {
        self.times_ms.len() + self.misses
    }

    /// Failed samples.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Nearest-rank quantile (`q` in `(0, 1]`): the smallest sample with
    /// at least `q` of all samples at or below it. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        if !self.sorted {
            self.times_ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.times_ms.get(rank - 1).copied().unwrap_or(MISS_MS))
    }

    /// Median, or `MISS_MS` when empty.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5).unwrap_or(MISS_MS)
    }
}

/// Fewest samples a window of a [`Timeline`] holds, so that its p99
/// has at least ten samples beyond it.
pub const MIN_PER_WINDOW: usize = 1000;
/// Most windows a [`Timeline`] is split into.
pub const MAX_WINDOWS: usize = 32;

/// Latencies tagged with the time their request fell due, so a run can
/// be split into windows. A miss is stored as infinity.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    points: Vec<(u64, f64)>,
}

impl Timeline {
    /// Records a request due at `due_ns` answered after `ms`.
    pub fn push(&mut self, due_ns: u64, ms: f64) {
        self.points.push((due_ns, ms));
    }

    /// Records a failed request due at `due_ns`.
    pub fn miss(&mut self, due_ns: u64) {
        self.points.push((due_ns, f64::INFINITY));
    }

    /// All samples, window-blind.
    pub fn samples(&self) -> Samples {
        let mut s = Samples::default();
        for &(_, ms) in &self.points {
            if ms.is_finite() {
                s.push(ms);
            } else {
                s.miss();
            }
        }
        s
    }

    /// How many windows [`Timeline::windows`] splits the run into.
    fn window_count(&self) -> usize {
        (self.points.len() / MIN_PER_WINDOW).clamp(1, MAX_WINDOWS)
    }

    /// The due-time span `[start, end)` of each of
    /// [`Timeline::windows`] over `[from, to)`.
    pub fn window_spans(&self, from: u64, to: u64) -> Vec<(u64, u64)> {
        let n = self.window_count() as u64;
        let at = |i: u64| from + (to.saturating_sub(from) as u128 * i as u128 / n as u128) as u64;
        (0..n).map(|i| (at(i), at(i + 1))).collect()
    }

    /// Splits `[from, to)` into equal due-time windows — as many as give
    /// each at least [`MIN_PER_WINDOW`] samples on average, between 1
    /// and [`MAX_WINDOWS`] — and returns each window's samples.
    pub fn windows(&self, from: u64, to: u64) -> Vec<Samples> {
        let n = self.window_count();
        let span = to.saturating_sub(from).max(1) as u128;
        let mut windows = vec![Samples::default(); n];
        for &(due, ms) in &self.points {
            let at = due.saturating_sub(from) as u128;
            let w = ((at * n as u128 / span) as usize).min(n - 1);
            if ms.is_finite() {
                windows[w].push(ms);
            } else {
                windows[w].miss();
            }
        }
        windows
    }

    /// Each non-empty window's `q` quantile, in time order.
    pub fn per_window(&self, from: u64, to: u64, q: f64) -> Vec<f64> {
        self.windows(from, to)
            .iter_mut()
            .filter_map(|w| w.quantile(q))
            .collect()
    }

    /// The median of the `q` quantiles of the [`Timeline::windows`] in
    /// which the host stole no time, and how many windows it stole time
    /// in. Host steal stalls whatever thread a vCPU was running for
    /// 10–20 ms and lifts the tail of the window it lands in, so a tail
    /// taken over a whole run moves with how much steal the run caught.
    /// Windows the host stole from are left out (all are kept when it
    /// stole from every one); the median then reads the tail of a
    /// typical quiet window. A slowdown of the program's own shows once
    /// it reaches half the quiet windows; one it makes once or twice a
    /// run does not (the whole-run quantile, reported beside it, does).
    /// `MISS_MS` when there are no samples.
    pub fn window_median(&self, from: u64, to: u64, q: f64, steal: &StealLog) -> (f64, usize) {
        let stolen: Vec<bool> = self
            .window_spans(from, to)
            .iter()
            .map(|&(start, end)| steal.ticks(start, end) > 0)
            .collect();
        let voided = stolen.iter().filter(|&&s| s).count();
        let keep_all = voided == stolen.len();
        let tails: Vec<f64> = self
            .windows(from, to)
            .iter_mut()
            .zip(&stolen)
            .filter(|(_, &stolen)| keep_all || !stolen)
            .filter_map(|(w, _)| w.quantile(q))
            .collect();
        let tail = if tails.is_empty() {
            MISS_MS
        } else {
            median(&tails)
        };
        (tail, voided)
    }
}

/// Host steal time over a run: the hypervisor running something else
/// while one of the VM's CPUs wanted to run, which stalls whatever
/// thread was on it. Cumulative `/proc/stat` steal ticks, sampled.
#[derive(Debug, Default, Clone)]
pub struct StealLog {
    samples: Vec<(u64, u64)>,
}

impl StealLog {
    /// Records `ticks` of steal counted so far, read at `at_ns`.
    pub fn record(&mut self, at_ns: u64, ticks: u64) {
        self.samples.push((at_ns, ticks));
    }

    /// Steal ticks counted over `[from, to)`, from the last sample at or
    /// before `from` to the first at or after `to` (or the last sample).
    pub fn ticks(&self, from: u64, to: u64) -> u64 {
        let before = self.samples.iter().rev().find(|&&(at, _)| at <= from);
        let after = self.samples.iter().find(|&&(at, _)| at >= to);
        match (
            before.or(self.samples.first()),
            after.or(self.samples.last()),
        ) {
            (Some(&(_, a)), Some(&(_, b))) => b.saturating_sub(a),
            _ => 0,
        }
    }
}

/// Median of a slice (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A fixed geometric ladder of offered rates: rung `i` offers
/// `base * ratio^i` requests per second.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Rate of rung 0, in requests per second.
    pub base: f64,
    /// Ratio between neighbouring rungs (below 1.10, so steps are under
    /// 10% apart).
    pub ratio: f64,
    /// Number of rungs.
    pub rungs: usize,
}

impl Ladder {
    /// The offered rate of rung `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.ratio.powi(i as i32)
    }

    /// Binary search for the highest rung whose probe passes, assuming
    /// passing is downward closed (a rate below a passing rate passes).
    /// Probes at most `ceil(log2(rungs + 1))` rungs; `None` when even
    /// rung 0 fails.
    pub fn search(&self, mut probe: impl FnMut(usize) -> bool) -> Option<usize> {
        let (mut pass, mut fail) = (-1isize, self.rungs as isize);
        while fail - pass > 1 {
            let mid = (pass + fail) / 2;
            if probe(mid as usize) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
        (pass >= 0).then_some(pass as usize)
    }
}

/// Open-loop schedule: items fall due at fixed times whatever the
/// system under test is doing. [`DueQueue::pop_due`] hands out items in
/// due order once their time has come and records how late each left.
#[derive(Debug)]
pub struct DueQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    items: Vec<Option<T>>,
    seq: u64,
    lateness_ns: Vec<u64>,
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        DueQueue {
            heap: BinaryHeap::new(),
            items: Vec::new(),
            seq: 0,
            lateness_ns: Vec::new(),
        }
    }
}

impl<T> DueQueue<T> {
    /// Schedules `item` at `due_ns`. Items due at the same time leave in
    /// insertion order.
    pub fn push(&mut self, due_ns: u64, item: T) {
        self.items.push(Some(item));
        self.heap
            .push(Reverse((due_ns, self.seq, self.items.len() - 1)));
        self.seq += 1;
    }

    /// The earliest due time still queued.
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((due, _, _))| *due)
    }

    /// Takes the earliest item if it is due at `now_ns`, recording its
    /// lateness (`now_ns - due`).
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, T)> {
        let (due, item) = self.pop_before(now_ns + 1)?;
        self.lateness_ns.push(now_ns - due);
        Some((due, item))
    }

    /// Takes the earliest item if it fell due before `t`, recording no
    /// lateness: for items that are skipped, never sent.
    pub fn pop_before(&mut self, t: u64) -> Option<(u64, T)> {
        let Reverse((due, _, idx)) = *self.heap.peek()?;
        if due >= t {
            return None;
        }
        self.heap.pop();
        let item = self.items[idx].take().expect("each slot pops once");
        if self.heap.is_empty() {
            self.items.clear();
        }
        Some((due, item))
    }

    /// 99th-percentile lateness of every item popped so far, in ms.
    pub fn late_p99_ms(&self) -> f64 {
        let mut s = Samples::default();
        for &ns in &self.lateness_ns {
            s.push(ns as f64 / 1e6);
        }
        s.quantile(0.99).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ms in (1..=100).rev() {
            s.push(ms as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.001), Some(1.0));
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn failures_rank_above_every_time() {
        let mut s = Samples::default();
        for ms in 1..=98 {
            s.push(ms as f64);
        }
        s.miss();
        s.miss();
        assert_eq!(s.count(), 100);
        // Rank 99 of 100 is the first miss.
        assert_eq!(s.quantile(0.99), Some(MISS_MS));
        assert_eq!(s.quantile(0.98), Some(98.0));
        assert_eq!(s.p50(), 50.0);
    }

    /// 4 windows' worth of samples over [0, 4000): windows below
    /// `slow` answer 50 ms late.
    fn four_windows(slow: u64) -> Timeline {
        let mut t = Timeline::default();
        for i in 0..4 * MIN_PER_WINDOW as u64 {
            let due = i * 4000 / (4 * MIN_PER_WINDOW as u64);
            let stall = if due / 1000 < slow { 50.0 } else { 0.0 };
            t.push(due, (i % 100 + 1) as f64 / 100.0 + stall);
        }
        t
    }

    #[test]
    fn window_median_moves_once_half_the_quiet_windows_do() {
        let quiet = StealLog::default();
        assert_eq!(
            four_windows(0).window_median(0, 4000, 0.99, &quiet),
            (0.99, 0)
        );
        // One slow window in four: the whole-run p99 shows it, the
        // window median does not.
        assert_eq!(four_windows(1).window_median(0, 4000, 0.99, &quiet).0, 0.99);
        assert!(four_windows(1).samples().quantile(0.99).unwrap() > 50.0);
        // Half the windows slow: the median is halfway.
        let half = four_windows(2).window_median(0, 4000, 0.99, &quiet).0;
        assert_eq!(half, (0.99 + 50.99) / 2.0);
        assert!(four_windows(3).window_median(0, 4000, 0.99, &quiet).0 > 50.0);
        let empty = Timeline::default().window_median(0, 10, 0.99, &quiet);
        assert_eq!(empty.0, MISS_MS);
    }

    #[test]
    fn windows_the_host_stole_from_are_left_out() {
        // Steal sampled every 100 ns; two ticks land in the first two
        // windows, which are also the slow ones.
        let mut steal = StealLog::default();
        for at in (0..=4000).step_by(100) {
            let ticks = match at {
                0..=200 => 0,
                300..=1200 => 1,
                _ => 2,
            };
            steal.record(at, ticks);
        }
        assert_eq!(steal.ticks(0, 1000), 1);
        assert_eq!(steal.ticks(1000, 2000), 1);
        assert_eq!(steal.ticks(2000, 4000), 0);
        let (tail, voided) = four_windows(2).window_median(0, 4000, 0.99, &steal);
        assert_eq!((tail, voided), (0.99, 2));
        // Steal in every window leaves them all in.
        let mut always = StealLog::default();
        for (i, at) in (0..=4000).step_by(500).enumerate() {
            always.record(at, i as u64);
        }
        let (tail, voided) = four_windows(2).window_median(0, 4000, 0.99, &always);
        assert_eq!((tail, voided), ((0.99 + 50.99) / 2.0, 4));
    }

    #[test]
    fn windows_keep_enough_samples_for_a_p99() {
        let mut t = Timeline::default();
        for i in 0..2500u64 {
            t.push(i, 1.0);
        }
        t.miss(2499);
        let w = t.windows(0, 2500);
        assert_eq!(w.len(), 2, "2501 samples make two windows of 1000+");
        assert_eq!(w[1].misses(), 1);
        for i in 0..100_000u64 {
            t.push(i % 2500, 1.0);
        }
        assert_eq!(t.windows(0, 2500).len(), MAX_WINDOWS);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ladder_steps_are_geometric_and_under_ten_percent() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.07,
            rungs: 40,
        };
        for i in 1..ladder.rungs {
            let step = ladder.rate(i) / ladder.rate(i - 1);
            assert!((step - 1.07).abs() < 1e-9 && step < 1.10);
        }
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.07,
            rungs: 63,
        };
        for threshold in 0..63 {
            let mut probes = 0;
            let found = ladder.search(|i| {
                probes += 1;
                i <= threshold
            });
            assert_eq!(found, Some(threshold));
            assert!(probes <= 6, "{probes} probes for 63 rungs");
        }
        assert_eq!(ladder.search(|_| false), None);
        assert_eq!(ladder.search(|_| true), Some(62));
    }

    #[test]
    fn due_queue_releases_in_due_order_only_when_due() {
        let mut q = DueQueue::default();
        q.push(300, "c");
        q.push(100, "a");
        q.push(200, "b");
        q.push(200, "b2");
        assert_eq!(q.next_due(), Some(100));
        assert_eq!(q.pop_due(99), None, "nothing leaves early");
        assert_eq!(q.pop_due(150), Some((100, "a")));
        assert_eq!(q.pop_due(150), None);
        // Same due time: insertion order.
        assert_eq!(q.pop_due(1_000_200), Some((200, "b")));
        assert_eq!(q.pop_due(1_000_200), Some((200, "b2")));
        assert_eq!(q.next_due(), Some(300));
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let mut q = DueQueue::default();
        for i in 0..100u64 {
            q.push(i * 1_000_000, i);
        }
        // The generator stalls for 5 ms at item 50, then catches up:
        // every item popped in the catch-up counts its full wait.
        let mut now = 0;
        while let Some(due) = q.next_due() {
            now = now.max(due);
            if due == 50_000_000 {
                now += 5_000_000;
            }
            let (popped_due, _) = q.pop_due(now).expect("due");
            assert!(now >= popped_due);
        }
        // Items 50..=54 leave 5,4,3,2,1 ms late; 95 of 100 are on time.
        assert_eq!(q.late_p99_ms(), 4.0);
        let mut on_time = DueQueue::default();
        on_time.push(10, ());
        on_time.pop_due(10);
        assert_eq!(on_time.late_p99_ms(), 0.0);
    }

    #[test]
    fn skipped_items_leave_no_lateness() {
        let mut q = DueQueue::default();
        q.push(100, "skipped");
        q.push(5_000_000, "sent");
        assert_eq!(q.pop_before(100), None, "only items due before t");
        assert_eq!(q.pop_before(101), Some((100, "skipped")));
        assert_eq!(q.pop_due(5_000_000), Some((5_000_000, "sent")));
        assert_eq!(q.late_p99_ms(), 0.0);
    }
}
