//! Bounded lock-free relay for the live backend's hot paths.
//!
//! The live packet hook runs on worker threads where blocking on a file
//! write (or even a mutex) would perturb the latencies being measured.
//! [`RingSink`] therefore pushes events into a bounded lock-free MPMC
//! ring ([`crossbeam::queue::ArrayQueue`], the same primitive the
//! FirstResponder queue uses); a dedicated drainer thread pops them and
//! forwards to the real sink off-path, parking for a millisecond
//! whenever the ring is empty. When the ring is full the event
//! is **dropped and counted** — never blocked on — and the drop total is
//! surfaced both in [`RingStats`] and as a trailing
//! [`TelemetryEvent::Dropped`] record in the trace itself, so losses are
//! explicit, never silent.
//!
//! The aggregation snapshots of [`crate::agg`] (digest / slo / topk)
//! are **cumulative state, not deltas**, precisely so this relay may
//! drop them: a lost snapshot costs staleness until the next emission,
//! never correctness of the merged view.

use crate::event::{EventFamily, TelemetryEvent};
use crate::sink::{SharedSink, TelemetrySink};
use crossbeam::queue::ArrayQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the drainer parks once the ring is empty; a polling drainer
/// would take a whole CPU on a shared host. `emit` never wakes the
/// drainer, so the hot path stays one lock-free push; in exchange the
/// ring must absorb one interval of events before it drops (the live
/// backend's 64 Ki-event ring: 64 M events/s). [`RingDrainer::shutdown`]
/// unparks the drainer at once.
const DRAIN_INTERVAL: Duration = Duration::from_millis(1);

/// The four families, in a stable order for per-family counters.
const FAMILIES: [EventFamily; 4] = [
    EventFamily::Decision,
    EventFamily::Span,
    EventFamily::Metrics,
    EventFamily::Profile,
];

fn family_index(family: EventFamily) -> usize {
    match family {
        EventFamily::Decision => 0,
        EventFamily::Span => 1,
        EventFamily::Metrics => 2,
        EventFamily::Profile => 3,
    }
}

/// Lock-free, never-blocking sink front-end for hot paths.
///
/// Drops are counted **per event family** (decision / span / metrics):
/// once three streams share one relay, a single total would let a
/// metrics-sample flood hide span losses, and every output file would
/// have to confess to every other file's drops. Each family's loss is
/// testified by its own trailing [`TelemetryEvent::Dropped`] record,
/// which the demux routes only to that family's stream.
pub struct RingSink {
    queue: Arc<ArrayQueue<TelemetryEvent>>,
    dropped: [AtomicU64; 4],
    /// When set (profiling runs only), `emit` records the post-push
    /// queue length into `occupancy_high_water`. Off by default so the
    /// ~22 ns uninstrumented push path stays free of the extra length
    /// read — the profiler's own disabled-guard discipline.
    track_occupancy: bool,
    occupancy_high_water: AtomicU64,
}

impl RingSink {
    /// Build a ring of `capacity` events in front of `inner` and spawn
    /// the drainer thread. Shut down via [`RingDrainer::shutdown`] to
    /// drain remaining events and collect stats.
    pub fn spawn(inner: SharedSink, capacity: usize) -> (Arc<RingSink>, RingDrainer) {
        Self::spawn_inner(inner, capacity, false)
    }

    /// Like [`RingSink::spawn`], but with occupancy high-water tracking
    /// enabled — the profiling-run variant.
    pub fn spawn_tracking(inner: SharedSink, capacity: usize) -> (Arc<RingSink>, RingDrainer) {
        Self::spawn_inner(inner, capacity, true)
    }

    fn spawn_inner(
        inner: SharedSink,
        capacity: usize,
        track_occupancy: bool,
    ) -> (Arc<RingSink>, RingDrainer) {
        let sink = Arc::new(RingSink {
            queue: Arc::new(ArrayQueue::new(capacity.max(1))),
            dropped: std::array::from_fn(|_| AtomicU64::new(0)),
            track_occupancy,
            occupancy_high_water: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));

        let drainer = {
            let queue = Arc::clone(&sink.queue);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut forwarded = 0u64;
                loop {
                    // Read `stop` before draining, so every event pushed
                    // before `shutdown` set it is forwarded by this pass.
                    let stopping = stop.load(Ordering::Acquire);
                    while let Some(event) = queue.pop() {
                        inner.emit(event);
                        forwarded += 1;
                    }
                    if stopping {
                        inner.flush();
                        return (inner, forwarded);
                    }
                    std::thread::park_timeout(DRAIN_INTERVAL);
                }
            })
        };

        let handle = RingDrainer {
            sink: Arc::clone(&sink),
            stop,
            drainer: Some(drainer),
        };
        (sink, handle)
    }

    /// Events dropped so far because the ring was full, all families.
    pub fn dropped(&self) -> u64 {
        self.dropped.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Events of one family dropped so far.
    pub fn dropped_for(&self, family: EventFamily) -> u64 {
        self.dropped[family_index(family)].load(Ordering::Relaxed)
    }

    /// Highest queue occupancy observed after a successful push. Always
    /// 0 unless the ring was spawned with [`RingSink::spawn_tracking`].
    pub fn occupancy_high_water(&self) -> u64 {
        self.occupancy_high_water.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for RingSink {
    /// Push without blocking; a full ring drops the event and counts it
    /// against the event's family.
    fn emit(&self, event: TelemetryEvent) {
        match self.queue.push(event) {
            Ok(()) => {
                if self.track_occupancy {
                    self.occupancy_high_water
                        .fetch_max(self.queue.len() as u64, Ordering::Relaxed);
                }
            }
            Err(event) => {
                self.dropped[family_index(event.family())].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Totals reported by the drainer at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Events forwarded to the inner sink (including the trailing
    /// `Dropped` records, if any were emitted).
    pub forwarded: u64,
    /// Events lost to a full ring, all families.
    pub dropped: u64,
    /// Decision-trace events lost.
    pub dropped_decision: u64,
    /// Span records lost.
    pub dropped_span: u64,
    /// Metrics samples lost.
    pub dropped_metrics: u64,
    /// Profile records lost.
    pub dropped_profile: u64,
}

/// Owns the drainer thread; joining it finalizes the trace.
pub struct RingDrainer {
    sink: Arc<RingSink>,
    stop: Arc<AtomicBool>,
    drainer: Option<JoinHandle<(SharedSink, u64)>>,
}

impl RingDrainer {
    /// Stop the drainer after it empties the ring. For every event
    /// family with a nonzero drop counter, a family-tagged
    /// [`TelemetryEvent::Dropped`] record is appended to the inner sink
    /// so each stream testifies to its own losses.
    pub fn shutdown(mut self) -> RingStats {
        let drainer = self.drainer.take().expect("shutdown called once");
        self.stop.store(true, Ordering::Release);
        drainer.thread().unpark();
        let (inner, mut forwarded) = drainer.join().expect("telemetry drainer panicked");
        let mut per_family = [0u64; 4];
        for family in FAMILIES {
            let count = self.sink.dropped_for(family);
            per_family[family_index(family)] = count;
            if count > 0 {
                inner.emit(TelemetryEvent::Dropped {
                    count,
                    family: Some(family),
                });
                forwarded += 1;
            }
        }
        let dropped: u64 = per_family.iter().sum();
        if dropped > 0 {
            inner.flush();
        }
        RingStats {
            forwarded,
            dropped,
            dropped_decision: per_family[0],
            dropped_span: per_family[1],
            dropped_metrics: per_family[2],
            dropped_profile: per_family[3],
        }
    }
}

impl Drop for RingDrainer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(d) = self.drainer.take() {
            d.thread().unpark();
            let _ = d.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricId, MetricSample};
    use crate::sink::VecSink;
    use crate::span::SpanRecord;
    use sg_core::ids::{ContainerId, NodeId};
    use sg_core::time::{SimDuration, SimTime};

    fn decision_event(count: u64) -> TelemetryEvent {
        TelemetryEvent::Dropped {
            count,
            family: None,
        }
    }

    fn span_event() -> TelemetryEvent {
        TelemetryEvent::Span(SpanRecord {
            trace: 0,
            span: 1,
            parent: None,
            container: None,
            node: None,
            start: SimTime::ZERO,
            end: SimTime::from_micros(5),
            net_in: SimDuration::ZERO,
            conn_wait: SimDuration::ZERO,
            service: SimDuration::ZERO,
            downstream: SimDuration::from_micros(5),
            freq_level: 0,
            slack_ns: 0,
        })
    }

    fn metric_event() -> TelemetryEvent {
        TelemetryEvent::Metric(MetricSample {
            at: SimTime::from_micros(7),
            node: NodeId(0),
            container: ContainerId(0),
            metric: MetricId::Cores,
            value: 2.0,
        })
    }

    #[test]
    fn ring_forwards_everything_when_not_full() {
        let inner = VecSink::shared();
        let (ring, drainer) = RingSink::spawn(inner.clone(), 1024);
        for count in 0..100 {
            ring.emit(decision_event(count));
        }
        let stats = drainer.shutdown();
        assert_eq!(stats.forwarded, 100);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.dropped_decision, 0);
        assert_eq!(stats.dropped_span, 0);
        assert_eq!(stats.dropped_metrics, 0);
        assert_eq!(inner.take().len(), 100);
    }

    /// Inner sink that blocks until released, so the ring can fill;
    /// records everything it eventually forwards.
    struct Gate {
        rx: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        seen: std::sync::Mutex<Vec<TelemetryEvent>>,
    }
    impl TelemetrySink for Gate {
        fn emit(&self, e: TelemetryEvent) {
            let _ = self.rx.lock().unwrap().recv();
            self.seen.lock().unwrap().push(e);
        }
    }

    #[test]
    fn full_ring_drops_counts_and_testifies() {
        let (tx, rx) = std::sync::mpsc::channel();
        let gate = Arc::new(Gate {
            rx: std::sync::Mutex::new(rx),
            seen: std::sync::Mutex::new(Vec::new()),
        });
        let (ring, drainer) = RingSink::spawn(gate.clone(), 2);
        // The drainer grabs at most one event before blocking; pushing
        // capacity + 3 guarantees at least one drop.
        for count in 0..5 {
            ring.emit(decision_event(count));
        }
        assert!(ring.dropped() >= 1, "full ring must drop");
        drop(tx); // release the gate
        let stats = drainer.shutdown();
        assert!(stats.dropped >= 1);
        assert_eq!(stats.dropped, stats.dropped_decision, "all drops decision");
        // The trailing Dropped record is forwarded on top of the queued
        // events the drainer managed to deliver.
        assert_eq!(
            gate.seen.lock().unwrap().len() as u64,
            stats.forwarded,
            "drainer forwards exactly what it reports"
        );
    }

    /// Satellite regression test: with three families sharing the ring,
    /// drops are counted per family and each family's loss is testified
    /// by its own tagged trailing record.
    #[test]
    fn drops_are_counted_and_testified_per_family() {
        let (tx, rx) = std::sync::mpsc::channel();
        let gate = Arc::new(Gate {
            rx: std::sync::Mutex::new(rx),
            seen: std::sync::Mutex::new(Vec::new()),
        });
        // Capacity 2 and a blocked drainer: at most 3 events are ever
        // absorbed (2 ring slots + 1 held inside the gated emit), so
        // the later pushes must drop regardless of thread timing.
        let (ring, drainer) = RingSink::spawn(gate.clone(), 2);
        for count in 0..3 {
            ring.emit(decision_event(count));
        }
        for _ in 0..4 {
            ring.emit(span_event());
        }
        for _ in 0..4 {
            ring.emit(metric_event());
        }
        assert!(ring.dropped_for(EventFamily::Span) >= 3);
        assert!(ring.dropped_for(EventFamily::Metrics) >= 3);
        drop(tx); // release the gate
        let stats = drainer.shutdown();
        assert_eq!(
            stats.dropped,
            stats.dropped_decision + stats.dropped_span + stats.dropped_metrics,
            "per-family counts partition the total"
        );
        assert!(stats.dropped_span >= 3);
        assert!(stats.dropped_metrics >= 3);
        // Every nonzero family appears as exactly one tagged trailing
        // record whose count matches the stats.
        let seen = gate.seen.lock().unwrap();
        for (family, expected) in [
            (EventFamily::Decision, stats.dropped_decision),
            (EventFamily::Span, stats.dropped_span),
            (EventFamily::Metrics, stats.dropped_metrics),
        ] {
            let testimonies: Vec<u64> = seen
                .iter()
                .filter_map(|e| match e {
                    TelemetryEvent::Dropped {
                        count,
                        family: Some(f),
                    } if *f == family => Some(*count),
                    _ => None,
                })
                .collect();
            if expected > 0 {
                assert_eq!(testimonies, vec![expected], "{family:?}");
            } else {
                assert!(testimonies.is_empty(), "{family:?}");
            }
        }
    }

    /// Watermark correctness: with the drainer blocked (forced
    /// backpressure), a tracking ring's occupancy high-water must reach
    /// exactly its capacity; an untracked ring always reports zero.
    #[test]
    fn occupancy_high_water_matches_forced_backpressure() {
        let (tx, rx) = std::sync::mpsc::channel();
        let gate = Arc::new(Gate {
            rx: std::sync::Mutex::new(rx),
            seen: std::sync::Mutex::new(Vec::new()),
        });
        let (ring, drainer) = RingSink::spawn_tracking(gate.clone(), 8);
        // The drainer absorbs at most one event before blocking in the
        // gate; 16 pushes therefore fill all 8 slots no matter how the
        // threads interleave, and the high-water must hit capacity.
        for count in 0..16 {
            ring.emit(decision_event(count));
        }
        assert_eq!(ring.occupancy_high_water(), 8);
        assert!(ring.dropped() >= 1, "a full ring under backpressure drops");
        drop(tx);
        drainer.shutdown();

        // The default (untracked) spawn keeps the hot path clean and
        // reports zero even when events flow.
        let inner = VecSink::shared();
        let (ring, drainer) = RingSink::spawn(inner, 8);
        for count in 0..4 {
            ring.emit(decision_event(count));
        }
        assert_eq!(ring.occupancy_high_water(), 0);
        drainer.shutdown();
    }

    /// An idle (parked) drainer stops promptly on `shutdown` and on drop.
    #[test]
    fn idle_ring_shuts_down_promptly() {
        use std::time::{Duration, Instant};
        let inner = VecSink::shared();
        let (ring, drainer) = RingSink::spawn(inner.clone(), 8);
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        assert_eq!(drainer.shutdown(), RingStats::default());
        assert!(t0.elapsed() < Duration::from_millis(500), "shutdown hung");
        drop(ring);

        let (_ring, drainer) = RingSink::spawn(inner, 8);
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(drainer);
        assert!(t0.elapsed() < Duration::from_millis(500), "drop hung");
    }

    /// Events emitted while the drainer is parked are forwarded on its
    /// next wake, without any wake from `emit`.
    #[test]
    fn parked_drainer_forwards_later_events() {
        use std::time::{Duration, Instant};
        let inner = VecSink::shared();
        let (ring, drainer) = RingSink::spawn(inner.clone(), 64);
        std::thread::sleep(Duration::from_millis(20));
        for count in 0..3 {
            ring.emit(decision_event(count));
        }
        let t0 = Instant::now();
        let mut seen = 0;
        while seen < 3 {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "parked drainer never forwarded"
            );
            std::thread::sleep(Duration::from_millis(1));
            seen += inner.take().len();
        }
        assert_eq!(drainer.shutdown().forwarded, 3);
    }

    #[test]
    fn shutdown_drains_backlog_before_returning() {
        let inner = VecSink::shared();
        let (ring, drainer) = RingSink::spawn(inner.clone(), 64);
        for count in 0..64 {
            ring.emit(decision_event(count));
        }
        let stats = drainer.shutdown();
        assert_eq!(stats.forwarded + stats.dropped, 64);
        assert_eq!(inner.take().len() as u64, stats.forwarded);
    }
}
