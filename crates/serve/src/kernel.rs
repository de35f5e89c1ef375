//! The serving kernel: the one event loop every serving plane runs.
//!
//! Arrivals (one `(cycle, tenant, seq)`-sorted list) → depth admission
//! with WFQ finish tags → WFQ dispatch into a batch that leaves when full,
//! when its oldest item has lingered `max_linger_cycles`, or when no more
//! arrivals are coming → execution → completion, plus a pause hook that
//! holds the idle device for background work. A plane plugs in as a
//! [`Backend`]: batch execution, per-tenant admission limits and deadlines
//! (re-read every round, which carries serve's brownout shift), and the
//! pause hook, whose due-time rule the backend owns; the [`PauseRule`]
//! says when a due pause takes the device. The kernel alone emits the
//! ops-plane view: `Shed` events at the arrival cycle (the dispatch cycle
//! for an expired deadline), queue-depth samples at each decision with
//! work queued, and per completion a `QueryComplete` event, `Queue` /
//! `Execute` / `Recovery` spans and `queue` / `exec` / `total` records.
//!
//! While the device is busy with work queued the loop sleeps straight to
//! device-free and admits the arrivals it slept through there, in order:
//! nothing dispatches in between, so each sees the depth and gets the tag
//! a wake at its own cycle would give. Ties break by `(tag, tenant, seq)`
//! and all arithmetic is integer: a run is a pure function of its input.

use std::collections::VecDeque;

use ansmet_obs::{EventKind, Phase, TraceSink};

use crate::arrival::Arrival;
use crate::engine::BatchPolicy;

/// The sink names a plane reports its queue depth and per-completion
/// `queue`/`exec`/`total` cycles under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneMetrics {
    pub queue_depth: &'static str,
    pub queue_cycles: &'static str,
    pub exec_cycles: &'static str,
    pub total_cycles: &'static str,
}

/// When a due pause takes the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseRule {
    /// At the first dispatch decision at or after the due cycle (work
    /// queued, device idle): serve's scheduled maintenance.
    AtDecision,
    /// As a timer: the due cycle wakes the loop and the pause takes the
    /// device once it is idle, queued work or not; after the stream has
    /// drained, only a pause due by the time the device idles still runs.
    /// Churn's epochs.
    Timer,
}

/// Device cycles one batch item took, counted from dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemCycles {
    /// Until the item retired on the device.
    pub retire: u64,
    /// Recovery charged after retirement.
    pub penalty: u64,
}

/// What executing one batch cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    /// Per item, in batch order.
    pub items: Vec<ItemCycles>,
    /// Cycles the device is held from dispatch.
    pub hold: u64,
}

/// One completed item on the serving clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Position of the item in the arrival list.
    pub index: usize,
    pub arrival: Arrival,
    /// Cycle its batch dispatched.
    pub dispatch: u64,
    pub cycles: ItemCycles,
}

impl Completion {
    /// Cycle the item completed.
    pub fn at(&self) -> u64 {
        self.dispatch + self.exec_cycles()
    }

    /// Arrival → dispatch.
    pub fn queue_cycles(&self) -> u64 {
        self.dispatch - self.arrival.cycle
    }

    /// Dispatch → completion.
    pub fn exec_cycles(&self) -> u64 {
        self.cycles.retire + self.cycles.penalty
    }

    /// Arrival → completion.
    pub fn total_cycles(&self) -> u64 {
        self.at() - self.arrival.cycle
    }
}

/// What a plane plugs into the kernel.
pub trait Backend {
    const METRICS: PlaneMetrics;
    const PAUSE_RULE: PauseRule = PauseRule::AtDecision;

    /// Start of a scheduling round at `now`, before admission.
    fn begin_round<S: TraceSink>(&mut self, _now: u64, _sink: &mut S) {}

    /// An arrival of `tenant` finding this many items queued is shed.
    fn depth_limit(&self, tenant: usize) -> usize;

    /// Cycles an item of `tenant` may wait before dispatch sheds it.
    fn deadline(&self, _tenant: usize) -> Option<u64> {
        None
    }

    /// `arrival` was shed at admission, or at dispatch for its deadline.
    fn shed(&mut self, arrival: &Arrival, deadline: bool);

    /// Execute `batch` (in WFQ order) dispatched at `now`.
    fn execute<S: TraceSink>(&mut self, batch: &[Arrival], now: u64, sink: &mut S) -> Executed;

    /// Whether the ops plane sees this item's completion as a query.
    fn traced(&self, _arrival: &Arrival) -> bool {
        true
    }

    /// Book one completion, after the kernel has emitted it.
    fn complete(&mut self, done: &Completion);

    /// The cycle the next pause falls due, if any.
    fn pause_due(&self) -> Option<u64>;

    /// Run the due pause at `now` and set when the next one falls due;
    /// returns the cycles it holds the device.
    fn pause<S: TraceSink>(&mut self, now: u64, sink: &mut S) -> u64;
}

/// WFQ virtual-time scale: a tenant's tags advance by `WFQ_SCALE /
/// weight` per admitted item.
const WFQ_SCALE: u64 = 1 << 20;

/// A queued item: its arrival-list index and WFQ finish tag.
#[derive(Debug, Clone, Copy)]
struct Queued {
    index: usize,
    tag: u64,
}

/// Serve `arrivals` (sorted by `(cycle, tenant, seq)`) through `backend`,
/// `weights[t]` being tenant `t`'s WFQ weight. Returns the cycle at which
/// the device is idle for good.
///
/// # Panics
///
/// Panics on a zero batch size.
pub fn run<B: Backend, S: TraceSink>(
    arrivals: &[Arrival],
    weights: &[u64],
    policy: BatchPolicy,
    backend: &mut B,
    sink: &mut S,
) -> u64 {
    assert!(policy.max_batch > 0, "zero batch size");
    let timer = B::PAUSE_RULE == PauseRule::Timer;
    let mut queues: Vec<VecDeque<Queued>> = vec![VecDeque::new(); weights.len()];
    // Integer weighted-fair queueing (a start-time fair queueing variant):
    // an admitted item's finish tag is `max(virtual_now, last tag of its
    // tenant) + WFQ_SCALE / weight`, dispatch is ascending `(tag,
    // tenant)`, and virtual time jumps to each dispatched tag.
    let mut last_tag = vec![0u64; weights.len()];
    let mut virtual_now = 0u64;
    let mut queued = 0usize;
    let mut next = 0usize; // next un-admitted arrival
    let (mut now, mut device_free) = (0u64, 0u64);
    loop {
        backend.begin_round(now, sink);
        while let Some(a) = arrivals.get(next).filter(|a| a.cycle <= now) {
            if queued >= backend.depth_limit(a.tenant) {
                backend.shed(a, false);
                sink.event(a.cycle, EventKind::Shed { deadline: false });
            } else {
                let tag = virtual_now.max(last_tag[a.tenant]) + WFQ_SCALE / weights[a.tenant];
                last_tag[a.tenant] = tag;
                queues[a.tenant].push_back(Queued { index: next, tag });
                queued += 1;
            }
            next += 1;
        }
        if queued > 0 {
            sink.sample(now, B::METRICS.queue_depth, queued as u64);
        }
        let idle = device_free <= now;
        let due = backend.pause_due();
        if idle && due.is_some_and(|d| d <= now) && (queued > 0 || timer) {
            device_free = now + backend.pause(now, sink);
            continue;
        }
        let timer_due = due.filter(|_| timer);
        let next_arrival = arrivals.get(next).map(|a| a.cycle);
        if queued == 0 {
            // Sleep until the next arrival or until a timer pause can
            // take the device.
            now = match (next_arrival, timer_due.map(|d| d.max(device_free))) {
                (Some(a), pause) => pause.map_or(a, |p| p.min(a)),
                (None, Some(p)) if p == device_free => p,
                (None, _) => break,
            };
            continue;
        }
        if !idle {
            now = device_free;
            continue;
        }
        let oldest = queues
            .iter()
            .filter_map(|q| q.front())
            .map(|q| arrivals[q.index].cycle)
            .min()
            .expect("work is queued");
        let linger_end = oldest.saturating_add(policy.max_linger_cycles);
        if let Some(a) = next_arrival.filter(|_| queued < policy.max_batch && now < linger_end) {
            now = timer_due.map_or(a, |d| d.min(a)).min(linger_end);
            continue;
        }

        // Pop up to a full batch in WFQ order, shedding expired deadlines
        // as they surface.
        let mut batch: Vec<(usize, Arrival)> = Vec::with_capacity(policy.max_batch);
        while batch.len() < policy.max_batch {
            let heads = queues.iter().enumerate();
            let Some((_, t)) = heads
                .filter_map(|(t, q)| q.front().map(|h| (h.tag, t)))
                .min()
            else {
                break;
            };
            let q = queues[t].pop_front().expect("head tenant has an item");
            queued -= 1;
            virtual_now = q.tag;
            let a = arrivals[q.index];
            if backend
                .deadline(t)
                .is_some_and(|dl| now > a.cycle.saturating_add(dl))
            {
                backend.shed(&a, true);
                sink.event(now, EventKind::Shed { deadline: true });
            } else {
                batch.push((q.index, a));
            }
        }
        if batch.is_empty() {
            continue; // everything popped had expired
        }
        let items: Vec<Arrival> = batch.iter().map(|&(_, a)| a).collect();
        let exec = backend.execute(&items, now, sink);
        for (&(index, arrival), &cycles) in batch.iter().zip(&exec.items) {
            let done = Completion {
                index,
                arrival,
                dispatch: now,
                cycles,
            };
            if backend.traced(&arrival) {
                emit_completion(sink, B::METRICS, &done);
            }
            backend.complete(&done);
        }
        device_free = now + exec.hold;
    }
    now.max(device_free)
}

/// The ops-plane view of one completion.
fn emit_completion<S: TraceSink>(sink: &mut S, metrics: PlaneMetrics, c: &Completion) {
    let (start, retired, at) = (c.dispatch, c.dispatch + c.cycles.retire, c.at());
    let (query, tenant) = (c.arrival.query.min(u32::MAX as usize), c.arrival.tenant);
    sink.event(
        at,
        EventKind::QueryComplete {
            query: query as u32,
            tenant: tenant as u32,
        },
    );
    if c.queue_cycles() > 0 {
        sink.span(Phase::Queue, c.arrival.cycle, start);
    }
    if retired > start {
        sink.span(Phase::Execute, start, retired);
    }
    if at > retired {
        sink.span(Phase::Recovery, retired, at);
    }
    sink.record(metrics.queue_cycles, c.queue_cycles());
    sink.record(metrics.exec_cycles, c.exec_cycles());
    sink.record(metrics.total_cycles, c.total_cycles());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose every item takes `hold` cycles; pauses (when
    /// configured) are due one interval after they start, or one
    /// interval after they end when the pause runs past that point.
    struct Fake<const TIMER: bool> {
        depth: usize,
        hold: u64,
        pause: Option<(u64, u64)>,
        next_pause: Option<u64>,
        batches: Vec<(u64, Vec<(usize, u64)>)>,
        sheds: Vec<(u64, bool)>,
        completed: Vec<Completion>,
        pauses: Vec<u64>,
    }

    impl<const TIMER: bool> Fake<TIMER> {
        fn new(depth: usize, hold: u64) -> Self {
            Fake {
                depth,
                hold,
                pause: None,
                next_pause: None,
                batches: Vec::new(),
                sheds: Vec::new(),
                completed: Vec::new(),
                pauses: Vec::new(),
            }
        }

        /// Pause for `cycles` every `interval` cycles.
        fn pausing(mut self, interval: u64, cycles: u64) -> Self {
            self.pause = Some((interval, cycles));
            self.next_pause = Some(interval);
            self
        }

        fn dispatch_cycles(&self) -> Vec<u64> {
            self.batches.iter().map(|(c, _)| *c).collect()
        }
    }

    impl<const TIMER: bool> Backend for Fake<TIMER> {
        const METRICS: PlaneMetrics = PlaneMetrics {
            queue_depth: "fake.queue_depth",
            queue_cycles: "fake.queue_cycles",
            exec_cycles: "fake.exec_cycles",
            total_cycles: "fake.total_cycles",
        };
        const PAUSE_RULE: PauseRule = if TIMER {
            PauseRule::Timer
        } else {
            PauseRule::AtDecision
        };

        fn depth_limit(&self, _tenant: usize) -> usize {
            self.depth
        }

        fn shed(&mut self, arrival: &Arrival, deadline: bool) {
            self.sheds.push((arrival.cycle, deadline));
        }

        fn execute<S: TraceSink>(
            &mut self,
            batch: &[Arrival],
            now: u64,
            _sink: &mut S,
        ) -> Executed {
            self.batches
                .push((now, batch.iter().map(|a| (a.tenant, a.seq)).collect()));
            Executed {
                items: vec![
                    ItemCycles {
                        retire: self.hold,
                        penalty: 0,
                    };
                    batch.len()
                ],
                hold: self.hold,
            }
        }

        fn complete(&mut self, done: &Completion) {
            self.completed.push(*done);
        }

        fn pause_due(&self) -> Option<u64> {
            self.next_pause
        }

        fn pause<S: TraceSink>(&mut self, now: u64, _sink: &mut S) -> u64 {
            let (interval, cycles) = self.pause.expect("pauses configured");
            self.pauses.push(now);
            let due = now + interval;
            self.next_pause = Some(if now + cycles >= due {
                now + cycles + interval
            } else {
                due
            });
            cycles
        }
    }

    /// Records every event, span, and sample.
    #[derive(Default)]
    struct Capture {
        events: Vec<(u64, EventKind)>,
        spans: Vec<(Phase, u64, u64)>,
        samples: Vec<(u64, u64)>,
    }

    impl TraceSink for Capture {
        fn enabled(&self) -> bool {
            true
        }
        fn span(&mut self, phase: Phase, start: u64, end: u64) {
            self.spans.push((phase, start, end));
        }
        fn event(&mut self, cycle: u64, kind: EventKind) {
            self.events.push((cycle, kind));
        }
        fn sample(&mut self, cycle: u64, _name: &'static str, value: u64) {
            self.samples.push((cycle, value));
        }
    }

    /// Arrivals from `(cycle, tenant)` pairs, sequenced per tenant and
    /// sorted the way the planes sort them.
    fn arrivals(at: &[(u64, usize)]) -> Vec<Arrival> {
        let mut seqs = std::collections::HashMap::new();
        let mut out: Vec<Arrival> = at
            .iter()
            .enumerate()
            .map(|(i, &(cycle, tenant))| {
                let seq = seqs.entry(tenant).or_insert(0u64);
                *seq += 1;
                Arrival {
                    cycle,
                    tenant,
                    seq: *seq - 1,
                    query: i,
                }
            })
            .collect();
        out.sort_by_key(|a| (a.cycle, a.tenant, a.seq));
        out
    }

    fn policy(max_batch: usize, max_linger_cycles: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_linger_cycles,
        }
    }

    #[test]
    fn a_full_batch_dispatches_at_once() {
        let arr = arrivals(&[(10, 0), (20, 0), (30, 0), (40, 0)]);
        let mut b = Fake::<false>::new(64, 5);
        let end = run(
            &arr,
            &[1],
            policy(2, 1_000),
            &mut b,
            &mut Capture::default(),
        );
        assert_eq!(b.dispatch_cycles(), vec![20, 40]);
        assert_eq!(b.batches[0].1, vec![(0, 0), (0, 1)]);
        assert_eq!(end, 45);
    }

    #[test]
    fn a_part_full_batch_leaves_when_its_oldest_item_has_lingered() {
        let arr = arrivals(&[(10, 0), (20, 0), (500, 0), (600, 0)]);
        let mut b = Fake::<false>::new(64, 5);
        run(&arr, &[1], policy(4, 100), &mut b, &mut Capture::default());
        // Linger expiry at 10 + 100; the last two leave at end of stream.
        assert_eq!(b.dispatch_cycles(), vec![110, 600]);
        assert_eq!(b.batches[0].1.len(), 2);
        assert_eq!(b.batches[1].1.len(), 2);
    }

    #[test]
    fn the_last_arrival_dispatches_without_waiting_for_linger() {
        let arr = arrivals(&[(10, 0), (20, 0)]);
        let mut b = Fake::<false>::new(64, 5);
        let mut sink = Capture::default();
        run(&arr, &[1], policy(4, 1_000_000), &mut b, &mut sink);
        assert_eq!(b.dispatch_cycles(), vec![20]);
        // The kernel emits each completion with its queue and execute
        // spans on the serving clock.
        let done: Vec<u64> = sink
            .events
            .iter()
            .filter(|(_, k)| matches!(k, EventKind::QueryComplete { .. }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(done, vec![25, 25]);
        assert!(sink.spans.contains(&(Phase::Queue, 10, 20)));
        assert!(sink.spans.contains(&(Phase::Execute, 20, 25)));
    }

    #[test]
    fn a_depth_shed_is_stamped_at_its_arrival_cycle() {
        // The first item holds the device until 1000; 100 queues, and
        // 200 and 300 are admitted (and shed) at device-free.
        let arr = arrivals(&[(0, 0), (100, 0), (200, 0), (300, 0)]);
        let mut b = Fake::<false>::new(1, 1_000);
        let mut sink = Capture::default();
        run(&arr, &[1], policy(1, 0), &mut b, &mut sink);
        assert_eq!(b.sheds, vec![(200, false), (300, false)]);
        let sheds: Vec<u64> = sink
            .events
            .iter()
            .filter(|(_, k)| matches!(k, EventKind::Shed { deadline: false }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(sheds, vec![200, 300]);
        assert_eq!(b.dispatch_cycles(), vec![0, 1_000]);
        // Depth is sampled at decisions with work queued.
        assert_eq!(sink.samples.first(), Some(&(0, 1)));
    }

    #[test]
    fn dispatch_follows_ascending_tag_then_tenant() {
        // Everything arrives at once; tenant 0 (weight 2) earns tags
        // S/2, S, 3S/2, 2S and tenant 1 (weight 1) S, 2S, 3S. Equal tags
        // go to the lower tenant id.
        let mut at: Vec<(u64, usize)> = vec![(0, 0); 4];
        at.extend([(0, 1); 3]);
        let arr = arrivals(&at);
        let mut b = Fake::<false>::new(64, 10);
        run(&arr, &[2, 1], policy(1, 0), &mut b, &mut Capture::default());
        let order: Vec<(usize, u64)> = b.batches.iter().map(|(_, items)| items[0]).collect();
        assert_eq!(
            order,
            vec![(0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn heavier_tenants_dispatch_more_often() {
        // Tenant 0 weight 4, tenant 1 weight 1, both backlogged: over any
        // long window tenant 0 dispatches about four times as often.
        let mut at: Vec<(u64, usize)> = vec![(0, 0); 40];
        at.extend([(0, 1); 40]);
        let arr = arrivals(&at);
        let mut b = Fake::<false>::new(128, 10);
        run(&arr, &[4, 1], policy(1, 0), &mut b, &mut Capture::default());
        let mut counts = [0usize; 2];
        for (_, items) in &b.batches[..50] {
            counts[items[0].0] += 1;
        }
        assert!(
            counts[0] >= 3 * counts[1],
            "weights not honored: {counts:?}"
        );
    }

    fn long_pauses_serve_everything<const TIMER: bool>() {
        // Each pause (50) outlasts its interval (10); the stream keeps
        // arriving throughout.
        let at: Vec<(u64, usize)> = (0..20).map(|i| (i * 5, 0)).collect();
        let arr = arrivals(&at);
        let mut b = Fake::<TIMER>::new(64, 3).pausing(10, 50);
        run(&arr, &[1], policy(1, 0), &mut b, &mut Capture::default());
        assert_eq!(b.completed.len(), 20, "every item is served");
        assert!(b.pauses.len() >= 2, "pauses keep firing: {:?}", b.pauses);
        // Service resumes between consecutive pauses.
        for w in b.pauses.windows(2) {
            assert!(
                b.batches.iter().any(|(c, _)| *c > w[0] && *c < w[1]),
                "no dispatch between pauses at {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn a_pause_longer_than_its_interval_never_starves_service() {
        long_pauses_serve_everything::<false>();
        long_pauses_serve_everything::<true>();
    }

    #[test]
    fn timer_pauses_fire_on_an_idle_device_decision_pauses_wait_for_work() {
        let arr = arrivals(&[(0, 0), (1_000, 0)]);
        let mut decision = Fake::<false>::new(64, 3).pausing(100, 10);
        run(
            &arr,
            &[1],
            policy(1, 0),
            &mut decision,
            &mut Capture::default(),
        );
        assert_eq!(decision.pauses, vec![1_000]);
        assert_eq!(decision.dispatch_cycles(), vec![0, 1_010]);

        let mut timer = Fake::<true>::new(64, 3).pausing(100, 10);
        run(
            &arr,
            &[1],
            policy(1, 0),
            &mut timer,
            &mut Capture::default(),
        );
        let expected: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        assert_eq!(timer.pauses, expected);
        assert_eq!(timer.dispatch_cycles(), vec![0, 1_010]);
    }
}
