//! The two simulator workloads.
//!
//! * `chain_surge` — calibrated CHAIN under the full SurgeGuard
//!   controller with 1.75× spikes, a materialized shared schedule and all
//!   observability off: the paper's unit of work.
//! * `cluster_200` — the 200-node / 5 001-container gateway fan-out
//!   scenario under the static controller with streamed spike arrivals
//!   and the observability stack on (aggregation, metrics, sampled spans
//!   into an encode-and-discard sink).

use crate::host::{peak_rss_mb, Usage};
use crate::layers::{ControllerTally, EncodeSink, Tally, TimedArrivals, TimedFactory, TimedSink};
use crate::{
    coverage_pct, latencies_ns, median, percentile, repeat_for, Args, Outcome, SETUP_MIN_TIME,
    SETUP_REPS,
};
use sg_bench::{BenchScenario, ClusterScenario};
use sg_controllers::SurgeGuardFactory;
use sg_core::arrivals::{ArrivalSource, ScheduleSource};
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::{ArrivalProfile, LatencyHistogram, RunReport};
use sg_sim::controller::NoopFactory;
use sg_sim::runner::{RunResult, Simulation};
use sg_telemetry::{
    AggConfig, AggRuntime, ClusterAgg, EventFamily, ProfileMark, ProfilePhase, ProfileReport,
    SharedSink, SpanSampler, VecSink,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated horizon of one `chain_surge` run: ten 1 s spikes.
const CHAIN_HORIZON: SimTime = SimTime::from_secs(30);
/// `chain_surge` warmup excluded from the QoS report.
const CHAIN_MEASURE_START: SimTime = SimTime::from_secs(1);
/// Cluster size of `cluster_200`.
const CLUSTER_NODES: u32 = 200;
/// Base rate each node's backend group contributes (2× during spikes).
const CLUSTER_PER_NODE_RATE: f64 = 400.0;
/// Simulated horizon of one `cluster_200` run (spike at 1–2 s).
const CLUSTER_HORIZON: SimTime = SimTime::from_secs(2);
/// `cluster_200` span sampling: this many out of every 64 requests.
const CLUSTER_SPAN_SAMPLE: u64 = 1;

/// Whether two runs produced the same simulated outputs: latency
/// points, event count, energy (bit for bit), boosts and clamped actions.
fn same_outputs(a: &RunResult, b: &RunResult) -> bool {
    a.points == b.points
        && a.events == b.events
        && a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.packet_freq_boosts == b.packet_freq_boosts
        && a.clamped_actions == b.clamped_actions
}

/// Host cost of one untraced timed operation.
struct Timed {
    wall_ns: f64,
    cpu_ns: f64,
}

/// What a traced run's wrappers and profiler saw.
struct Traced {
    result: RunResult,
    wall_ns: f64,
    controller: ControllerTally,
    arrivals: Tally,
    sink: Tally,
    profile: ProfileReport,
}

/// Conservation and reporting checks shared by both sim workloads.
fn check_run(out: &mut Outcome, r: &RunResult, expected_arrivals: u64, end: SimTime) {
    let in_flight = r.injected as i64 - r.completed as i64 - r.dropped as i64;
    out.checks.check(
        "sim_conservation",
        r.injected == expected_arrivals
            && r.completed == r.points.len() as u64
            && (0..=r.peak_in_flight as i64).contains(&in_flight)
            && r.points.iter().all(|p| p.completion <= end),
        format!(
            "generated {expected_arrivals}, injected {} = completed {} + dropped {} + in flight {in_flight} (peak {}); {} points",
            r.injected,
            r.completed,
            r.dropped,
            r.peak_in_flight,
            r.points.len()
        ),
    );
}

/// End-to-end metrics of a sim workload from its untraced runs.
fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    runs: &[Timed],
    r: &RunResult,
    measure_start: SimTime,
) {
    out.set("setup_s", median(setup_s));
    let completed = r.completed as f64;
    let cpu: Vec<f64> = runs.iter().map(|t| t.cpu_ns / completed).collect();
    let rps: Vec<f64> = runs.iter().map(|t| completed / (t.wall_ns / 1e9)).collect();
    out.set("ns_per_req", median(&cpu));
    out.set("capacity_rps", median(&rps));
    out.set("completed_pct", 100.0 * completed / r.injected as f64);
    let mut lat = latencies_ns(&r.points, measure_start);
    out.set("p50_ms", percentile(&mut lat, 50.0) as f64 / 1e6);
    out.set("peak_rss_mb", peak_rss_mb());
    out.param("untraced_runs", runs.len());
}

/// Per-layer metrics of a sim workload from paired untraced/traced runs.
fn per_layer(out: &mut Outcome, untraced_wall: &[f64], traced_wall: &[f64], t: &Traced) {
    let r = &t.result;
    let req = r.completed as f64;
    let c = &t.controller;
    c.report(out, r.clamped_actions, t.wall_ns);

    let events = r.events as f64;
    out.set("engine.events_per_req", events / req);
    out.set("engine.ns_per_event", median(untraced_wall) / events);
    out.set("engine.peak_in_flight", r.peak_in_flight as f64);
    let wrapped = c.busy_ns() + t.arrivals.ns as f64 + t.sink.ns as f64;
    out.set("engine.self_ns_per_req", (t.wall_ns - wrapped) / req);

    let phase_ns = |p: ProfilePhase| {
        t.profile
            .phases
            .iter()
            .find(|s| s.phase == p)
            .map_or(0.0, |s| s.total_ns as f64)
    };
    for (name, phase) in [
        ("sim.arrival_ns", ProfilePhase::SimArrival),
        ("sim.deliver_request_ns", ProfilePhase::SimDeliverRequest),
        ("sim.deliver_response_ns", ProfilePhase::SimDeliverResponse),
        ("sim.phase_complete_ns", ProfilePhase::SimPhaseComplete),
        ("sim.controller_tick_ns", ProfilePhase::SimControllerTick),
        ("sim.freq_apply_ns", ProfilePhase::SimFreqApply),
    ] {
        out.set(name, phase_ns(phase) / req);
    }
    out.set(
        "sim.wheel_high_water",
        t.profile.mark(ProfileMark::HeapDepthHighWater).unwrap_or(0) as f64,
    );
    out.set("trace.coverage_pct", coverage_pct(&t.profile));
    out.set(
        "trace.overhead_pct",
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0),
    );
    out.param("trace_pairs", traced_wall.len());
}

/// Run `untraced` and `traced` alternately for the budget; check that
/// tracing changed no simulated output.
fn paired_runs(
    args: &Args,
    out: &mut Outcome,
    mut untraced: impl FnMut() -> (RunResult, Timed),
    mut traced: impl FnMut() -> Traced,
) -> (Vec<f64>, Vec<f64>, RunResult, Traced) {
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut base: Option<RunResult> = None;
    let mut last: Option<Traced> = None;
    let mut identical = true;
    repeat_for(Duration::from_secs(args.seconds), 2, || {
        let (r, t) = untraced();
        untraced_wall.push(t.wall_ns);
        let tr = traced();
        traced_wall.push(tr.wall_ns);
        let reference = base.get_or_insert(r);
        identical &= same_outputs(reference, &tr.result);
        last = Some(tr);
    });
    out.checks.check(
        "trace_changes_nothing",
        identical,
        format!(
            "{} traced runs vs the untraced run: points, events, energy_j, boosts, clamped actions",
            traced_wall.len()
        ),
    );
    (
        untraced_wall,
        traced_wall,
        base.expect("at least one run"),
        last.expect("at least one run"),
    )
}

/// Untraced runs for the budget; check reruns are identical.
fn repeated_runs(
    args: &Args,
    out: &mut Outcome,
    mut op: impl FnMut() -> (RunResult, Timed),
) -> (RunResult, Vec<Timed>) {
    let mut first: Option<RunResult> = None;
    let mut runs = Vec::new();
    let mut identical = true;
    repeat_for(Duration::from_secs(args.seconds), 3, || {
        let (r, t) = op();
        runs.push(t);
        match &first {
            None => first = Some(r),
            Some(f) => identical &= same_outputs(f, &r),
        }
    });
    out.checks.check(
        "rerun_identical",
        identical,
        format!(
            "{} same-seed runs give identical simulated outputs",
            runs.len()
        ),
    );
    (first.expect("at least one run"), runs)
}

/// Time `op` on the wall clock and in process CPU.
fn timed<T>(op: impl FnOnce() -> T) -> (T, Timed) {
    let u0 = Usage::now();
    let t0 = Instant::now();
    let v = op();
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let cpu_ns = Usage::now().since(u0).cpu_ns() as f64;
    (v, Timed { wall_ns, cpu_ns })
}

fn profile_of(sink: &VecSink) -> ProfileReport {
    ProfileReport::from_events(&sink.take()).expect("a profiled run emits its report")
}

/// `chain_surge`: calibrated CHAIN, SurgeGuard, 1.75× spikes.
pub fn chain_surge(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut schedule_ns = Vec::new();
    let mut built = None;
    repeat_for(SETUP_MIN_TIME, SETUP_REPS, || {
        let t0 = Instant::now();
        let mut sc = BenchScenario::chain_surge();
        let prepared = t0.elapsed();
        sc.horizon = CHAIN_HORIZON;
        let arrivals: Arc<[SimTime]> = sc.pattern.arrivals(SimTime::ZERO, sc.horizon).into();
        setup_s.push(t0.elapsed().as_secs_f64());
        prepare_s.push(prepared.as_secs_f64());
        schedule_ns.push((t0.elapsed() - prepared).as_nanos() as f64);
        built = Some((sc, arrivals));
    });
    let (sc, arrivals) = built.expect("at least one set-up");
    let n_arrivals = arrivals.len() as u64;
    let mut cfg = sc.pw.cfg.clone();
    cfg.end = sc.horizon + SimDuration::from_millis(100);
    cfg.measure_start = CHAIN_MEASURE_START;
    cfg.seed = args.seed;
    let (qos, end) = (sc.pw.qos, cfg.end);
    out.param("workload", "CHAIN (calibrated)");
    out.param("controller", "surgeguard");
    out.param("base_rate_rps", sc.pattern.base_rate);
    out.param("spike_rate_rps", sc.pattern.spike_rate);
    out.param("spike_len_s", sc.pattern.spike_len.as_secs_f64());
    out.param("spike_period_s", sc.pattern.period.as_secs_f64());
    out.param("horizon_s", CHAIN_HORIZON.as_secs_f64());
    out.param("qos_ms", qos.as_secs_f64() * 1e3);
    out.param("arrivals", n_arrivals);

    let factory = SurgeGuardFactory::full();
    let untraced =
        || timed(|| Simulation::new_shared(cfg.clone(), &factory, Arc::clone(&arrivals)).run());
    let report_of = |r: &RunResult| {
        RunReport::from_points(
            &r.points,
            qos,
            CHAIN_MEASURE_START,
            end,
            r.avg_cores,
            r.energy_j,
        )
    };

    let r = if args.trace {
        let traced = || {
            let tf = TimedFactory::new(&factory);
            let arr_tally = Arc::new(Mutex::new(Tally::default()));
            let source = TimedArrivals::new(
                ScheduleSource::new(Arc::clone(&arrivals)),
                Arc::clone(&arr_tally),
            );
            let psink = VecSink::shared();
            let (result, t) = timed(|| {
                Simulation::new_streaming(cfg.clone(), &tf, Box::new(source))
                    .with_profile(psink.clone())
                    .run()
            });
            let arrivals = *arr_tally.lock().expect("arrival tally poisoned");
            Traced {
                result,
                wall_ns: t.wall_ns,
                controller: tf.tally(),
                arrivals,
                sink: Tally::default(),
                profile: profile_of(&psink),
            }
        };
        let (uw, tw, r, tr) = paired_runs(args, &mut out, untraced, traced);
        per_layer(&mut out, &uw, &tw, &tr);
        out.set("workloads.prepare_s", median(&prepare_s));
        out.set("loadgen.arrivals", n_arrivals as f64);
        out.set(
            "loadgen.arrival_ns",
            (median(&schedule_ns) + tr.arrivals.ns as f64) / n_arrivals as f64,
        );
        let t0 = Instant::now();
        std::hint::black_box(report_of(&tr.result));
        out.set("loadgen.report_ms", t0.elapsed().as_secs_f64() * 1e3);
        let runs = (uw.len() + tw.len()) as u64;
        out.attempted = r.injected * runs;
        out.failed = (r.injected - r.completed) * runs;
        r
    } else {
        let (r, runs) = repeated_runs(args, &mut out, untraced);
        end_to_end(&mut out, &setup_s, &runs, &r, CHAIN_MEASURE_START);
        out.attempted = r.injected * runs.len() as u64;
        out.failed = (r.injected - r.completed) * runs.len() as u64;
        r
    };
    let mut lat = latencies_ns(&r.points, CHAIN_MEASURE_START);
    out.paper_outputs(
        args.trace,
        percentile(&mut lat, 98.0) as f64 / 1e6,
        &report_of(&r),
    );
    check_run(&mut out, &r, n_arrivals, end);
    out
}

/// Spans, metrics and aggregation wiring of one `cluster_200` run.
fn cluster_observed(
    sim: Simulation,
    sink: SharedSink,
    agg: &Arc<AggRuntime>,
    seed: u64,
) -> Simulation {
    sim.with_agg(Arc::clone(agg))
        .with_metrics(Arc::clone(&sink))
        .with_spans(sink, SpanSampler::rate(CLUSTER_SPAN_SAMPLE, 64, seed))
}

/// The merged digest must count every completion and agree with an exact
/// histogram of the same points within its relative error γ.
fn check_digest(out: &mut Outcome, r: &RunResult, merged: &ClusterAgg) {
    let mut hist = LatencyHistogram::with_default_resolution();
    for p in &r.points {
        hist.record(p.latency);
    }
    let gamma = merged.digest.relative_error();
    let mut detail = format!(
        "digest count {} vs {} completions; γ={gamma}",
        merged.digest.len(),
        r.points.len()
    );
    let mut ok = merged.digest.len() == r.points.len() as u64;
    for q in [50.0, 99.0, 99.9] {
        let exact = hist.percentile(q).map_or(0.0, |d| d.as_nanos() as f64);
        let approx = merged
            .digest
            .percentile(q)
            .map_or(0.0, |d| d.as_nanos() as f64);
        ok &= (approx - exact).abs() <= gamma * exact + 1.0;
        detail.push_str(&format!("; p{q}: {approx} vs exact {exact} ns"));
    }
    out.checks.check("cluster_digest", ok, detail);
}

/// `cluster_200`: 200 nodes, static controller, streamed spikes, full
/// observability.
pub fn cluster_200(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    repeat_for(SETUP_MIN_TIME, SETUP_REPS, || {
        let t0 = Instant::now();
        let mut sc = ClusterScenario::new(CLUSTER_NODES, CLUSTER_PER_NODE_RATE, CLUSTER_HORIZON);
        sc.cfg.seed = args.seed;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(sc);
    });
    let sc = built.expect("at least one set-up");
    let stream = || ArrivalProfile::Spike(sc.pattern).stream(SimTime::ZERO, sc.horizon);
    let mut n_arrivals = 0u64;
    let mut s = stream();
    while s.next_arrival().is_some() {
        n_arrivals += 1;
    }
    let (qos, end, seed) = (sc.qos(), sc.cfg.end, args.seed);
    out.param("nodes", sc.nodes);
    out.param("containers", sc.cfg.graph.len());
    out.param("controller", "static");
    out.param("base_rate_rps", sc.pattern.base_rate);
    out.param("spike_rate_rps", sc.pattern.spike_rate);
    out.param("horizon_s", sc.horizon.as_secs_f64());
    out.param("qos_ms", qos.as_secs_f64() * 1e3);
    out.param("span_sample", format!("{CLUSTER_SPAN_SAMPLE}/64"));
    out.param("arrivals", n_arrivals);

    let factory = NoopFactory;
    let new_agg = || Arc::new(AggRuntime::new(AggConfig::new(qos), sc.nodes as usize));
    let mut merged_first: Option<ClusterAgg> = None;
    let mut untraced = || {
        let agg = new_agg();
        let sink: SharedSink = Arc::new(EncodeSink::default());
        let ((r, merged), t) = timed(|| {
            let sim = Simulation::new_streaming(sc.cfg.clone(), &factory, Box::new(stream()));
            let r = cluster_observed(sim, sink, &agg, seed).run();
            (r, agg.merged())
        });
        merged_first.get_or_insert(merged);
        (r, t)
    };

    let r = if args.trace {
        let mut counts = None;
        let mut merge_ms = 0.0;
        let traced = || {
            let tf = TimedFactory::new(&factory);
            let arr_tally = Arc::new(Mutex::new(Tally::default()));
            let source = TimedArrivals::new(stream(), Arc::clone(&arr_tally));
            let encode = Arc::new(EncodeSink::default());
            let sink = Arc::new(TimedSink::new(encode.clone()));
            let psink = VecSink::shared();
            let agg = new_agg();
            let ((result, merge), t) = timed(|| {
                let sim = Simulation::new_streaming(sc.cfg.clone(), &tf, Box::new(source));
                let result = cluster_observed(sim, sink.clone(), &agg, seed)
                    .with_profile(psink.clone())
                    .run();
                let t0 = Instant::now();
                std::hint::black_box(agg.merged());
                (result, t0.elapsed())
            });
            merge_ms = merge.as_secs_f64() * 1e3;
            counts = Some(encode);
            let arrivals = *arr_tally.lock().expect("arrival tally poisoned");
            Traced {
                result,
                wall_ns: t.wall_ns,
                controller: tf.tally(),
                arrivals,
                sink: sink.tally(),
                profile: profile_of(&psink),
            }
        };
        let (uw, tw, r, tr) = paired_runs(args, &mut out, &mut untraced, traced);
        per_layer(&mut out, &uw, &tw, &tr);
        let req = tr.result.completed as f64;
        let encode = counts.expect("at least one traced run");
        for (family, events, bytes) in [
            (
                EventFamily::Span,
                "telemetry.span.events_per_req",
                "telemetry.span.bytes_per_req",
            ),
            (
                EventFamily::Metrics,
                "telemetry.metrics.events_per_req",
                "telemetry.metrics.bytes_per_req",
            ),
        ] {
            let (n, b) = encode.counts(family);
            out.set(events, n as f64 / req);
            out.set(bytes, b as f64 / req);
        }
        out.set("telemetry.emit_ns_per_req", tr.sink.ns as f64 / req);
        out.set("agg.merge_ms", merge_ms);
        out.set("loadgen.arrivals", n_arrivals as f64);
        out.set(
            "loadgen.arrival_ns",
            tr.arrivals.ns as f64 / n_arrivals as f64,
        );
        let t0 = Instant::now();
        std::hint::black_box(RunReport::from_points(
            &tr.result.points,
            qos,
            SimTime::ZERO,
            end,
            tr.result.avg_cores,
            tr.result.energy_j,
        ));
        out.set("loadgen.report_ms", t0.elapsed().as_secs_f64() * 1e3);
        let runs = (uw.len() + tw.len()) as u64;
        out.attempted = r.injected * runs;
        out.failed = (r.injected - r.completed) * runs;
        r
    } else {
        let (r, runs) = repeated_runs(args, &mut out, &mut untraced);
        end_to_end(&mut out, &setup_s, &runs, &r, SimTime::ZERO);
        out.attempted = r.injected * runs.len() as u64;
        out.failed = (r.injected - r.completed) * runs.len() as u64;
        r
    };
    let mut lat = latencies_ns(&r.points, SimTime::ZERO);
    let report =
        RunReport::from_points(&r.points, qos, SimTime::ZERO, end, r.avg_cores, r.energy_j);
    out.paper_outputs(args.trace, percentile(&mut lat, 98.0) as f64 / 1e6, &report);
    check_run(&mut out, &r, n_arrivals, end);
    check_digest(
        &mut out,
        &r,
        merged_first.as_ref().expect("at least one run"),
    );
    out
}
