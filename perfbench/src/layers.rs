//! Forwarding wrappers that time calls into the program's layers from
//! outside: a controller (and its factory), an arrival source, and a
//! telemetry sink. Each forwards every hook unchanged, so a traced run
//! simulates exactly what an untraced run does.

use crate::{percentile, ratio, Outcome};
use sg_core::arrivals::ArrivalSource;
use sg_core::fault::FaultNotice;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::metadata::RpcMetadata;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use sg_telemetry::{EventFamily, MetricSample, SharedSink, TelemetryEvent, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls into one layer and the host time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    fn record(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// A `SetFreq` boost returned by `on_packet`, with the host time the hook
/// returned it.
#[derive(Debug, Clone, Copy)]
pub struct Boost {
    /// When the hook returned.
    pub at: Instant,
    /// Node whose hook issued it.
    pub node: NodeId,
    /// Boosted container.
    pub id: ContainerId,
    /// DVFS level.
    pub level: u8,
}

/// What the wrapped controllers of one run did, summed over nodes.
#[derive(Debug, Default, Clone)]
pub struct ControllerTally {
    /// `on_tick` duration of every tick, ns.
    pub tick_ns: Vec<u64>,
    /// `on_packet` calls and time.
    pub packets: Tally,
    /// Actions returned by `on_tick` and `on_packet`.
    pub actions: u64,
    /// `SetFreq` actions returned by `on_packet`, in return order per node.
    pub boosts: Vec<Boost>,
}

impl ControllerTally {
    fn merge(&mut self, other: ControllerTally) {
        self.tick_ns.extend(other.tick_ns);
        self.packets.add(other.packets);
        self.actions += other.actions;
        self.boosts.extend(other.boosts);
    }

    /// Time inside `on_tick` and `on_packet`, ns.
    pub fn busy_ns(&self) -> f64 {
        (self.tick_ns.iter().sum::<u64>() + self.packets.ns) as f64
    }

    /// Set the controller and FirstResponder per-layer metrics.
    /// `clamped_actions` comes from the run result; the controller's
    /// share is taken of `base_ns` (wall time on the simulator, process
    /// CPU on the live substrate).
    pub fn report(&self, out: &mut Outcome, clamped_actions: u64, base_ns: f64) {
        let mut ticks = self.tick_ns.clone();
        let packets = self.packets.calls as f64;
        let boosts = self.boosts.len() as f64;
        out.set("controller.ticks", ticks.len() as f64);
        out.set(
            "controller.tick_us_p50",
            percentile(&mut ticks, 50.0) as f64 / 1e3,
        );
        out.set(
            "controller.tick_us_p99",
            percentile(&mut ticks, 99.0) as f64 / 1e3,
        );
        out.set("controller.share_pct", 100.0 * self.busy_ns() / base_ns);
        out.set("controller.actions", self.actions as f64);
        out.set(
            "controller.clamped_ratio",
            ratio(clamped_actions as f64, self.actions as f64),
        );
        out.set("fr.packets", packets);
        out.set("fr.on_packet_ns", ratio(self.packets.ns as f64, packets));
        out.set("fr.boosts", boosts);
        out.set("fr.boosts_per_kpkt", ratio(1e3 * boosts, packets));
    }
}

/// Wraps every controller a factory makes in a [`TimedController`].
pub struct TimedFactory<'a> {
    inner: &'a dyn ControllerFactory,
    total: Arc<Mutex<ControllerTally>>,
}

impl<'a> TimedFactory<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn ControllerFactory) -> Self {
        TimedFactory {
            inner,
            total: Arc::default(),
        }
    }

    /// Tallies of every controller made so far that has been dropped
    /// (both substrates drop their controllers before returning).
    pub fn tally(&self) -> ControllerTally {
        let mut t = self
            .total
            .lock()
            .expect("controller tally poisoned")
            .clone();
        t.boosts.sort_by_key(|b| b.at);
        t
    }
}

impl ControllerFactory for TimedFactory<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        let node = init.node;
        Box::new(TimedController {
            inner: self.inner.make(init),
            node,
            local: ControllerTally::default(),
            total: Arc::clone(&self.total),
        })
    }
}

/// Times `on_tick` and `on_packet`; forwards every hook.
struct TimedController {
    inner: Box<dyn Controller>,
    node: NodeId,
    local: ControllerTally,
    total: Arc<Mutex<ControllerTally>>,
}

impl Controller for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_interval(&self) -> SimDuration {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_tick(now, snapshot);
        self.local.tick_ns.push(t0.elapsed().as_nanos() as u64);
        self.local.actions += actions.len() as u64;
        actions
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_packet(now, dest, meta);
        self.local.packets.record(t0);
        self.local.actions += actions.len() as u64;
        if !actions.is_empty() {
            let at = Instant::now();
            for a in &actions {
                if let ControlAction::SetFreq { id, level } = *a {
                    self.local.boosts.push(Boost {
                        at,
                        node: self.node,
                        id,
                        level,
                    });
                }
            }
        }
        actions
    }

    fn on_fault(&mut self, now: SimTime, notice: FaultNotice) {
        self.inner.on_fault(now, notice);
    }

    fn attach_telemetry(&mut self, sink: SharedSink) {
        self.inner.attach_telemetry(sink);
    }

    fn metric_samples(&mut self, now: SimTime, out: &mut Vec<MetricSample>) {
        self.inner.metric_samples(now, out);
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned total only loses this tally.
        if let Ok(mut total) = self.total.lock() {
            total.merge(std::mem::take(&mut self.local));
        }
    }
}

/// Times `next_arrival` (and chunked pulls) of an arrival source.
pub struct TimedArrivals<S: ArrivalSource> {
    inner: S,
    local: Tally,
    total: Arc<Mutex<Tally>>,
}

impl<S: ArrivalSource> TimedArrivals<S> {
    /// Wrap `inner`; its tally is added to `total` when dropped.
    pub fn new(inner: S, total: Arc<Mutex<Tally>>) -> Self {
        TimedArrivals {
            inner,
            local: Tally::default(),
            total,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedArrivals<S> {
    fn next_arrival(&mut self) -> Option<SimTime> {
        let t0 = Instant::now();
        let next = self.inner.next_arrival();
        self.local.record(t0);
        next
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }

    fn next_chunk(&mut self, out: &mut Vec<SimTime>, max: usize) -> usize {
        let t0 = Instant::now();
        let n = self.inner.next_chunk(out, max);
        self.local.record(t0);
        n
    }
}

impl<S: ArrivalSource> Drop for TimedArrivals<S> {
    fn drop(&mut self) {
        if let Ok(mut total) = self.total.lock() {
            total.add(self.local);
        }
    }
}

const FAMILIES: [EventFamily; 4] = [
    EventFamily::Decision,
    EventFamily::Span,
    EventFamily::Metrics,
    EventFamily::Profile,
];

fn family_index(f: EventFamily) -> usize {
    FAMILIES
        .iter()
        .position(|&g| g == f)
        .expect("FAMILIES lists every EventFamily")
}

/// Stands in for a JSONL file sink: encodes every event to its JSON line
/// and counts events and bytes (newline included) per family, then
/// discards the line.
#[derive(Default)]
pub struct EncodeSink {
    events: [AtomicU64; 4],
    bytes: [AtomicU64; 4],
}

impl EncodeSink {
    /// `(events, bytes)` of one family.
    pub fn counts(&self, family: EventFamily) -> (u64, u64) {
        let i = family_index(family);
        (
            self.events[i].load(Ordering::Relaxed),
            self.bytes[i].load(Ordering::Relaxed),
        )
    }
}

impl TelemetrySink for EncodeSink {
    fn emit(&self, event: TelemetryEvent) {
        let line = std::hint::black_box(event.to_json_line());
        let i = family_index(event.family());
        self.events[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
    }
}

/// Times `emit` on the sink it wraps.
pub struct TimedSink {
    inner: SharedSink,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TimedSink {
    /// Wrap `inner`.
    pub fn new(inner: SharedSink) -> Self {
        TimedSink {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// Calls and time so far.
    pub fn tally(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

impl TelemetrySink for TimedSink {
    fn emit(&self, event: TelemetryEvent) {
        let t0 = Instant::now();
        self.inner.emit(event);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
