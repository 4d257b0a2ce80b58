//! The live workload: calibrated CHAIN under SurgeGuard on the
//! wall-clock backend. A steady-rate ladder finds the highest rate that
//! meets the calibrated QoS on this host; one fixed sub-capacity rate
//! gives latency and CPU cost per request.

use crate::host::{peak_rss_mb, Usage};
use crate::layers::{Boost, TimedFactory};
use crate::{
    coverage_pct, latencies_ns, median, percentile, ratio, repeat_for, Args, Outcome,
    SETUP_MIN_TIME, SETUP_REPS,
};
use sg_controllers::SurgeGuardFactory;
use sg_core::firstresponder::{FrRuntime, FreqUpdate};
use sg_core::time::{SimDuration, SimTime};
use sg_live::{run_live_with_stats, LiveOpts, LiveStats};
use sg_loadgen::{RunReport, SpikePattern};
use sg_sim::cluster::SimConfig;
use sg_sim::controller::ControllerFactory;
use sg_sim::runner::RunResult;
use sg_telemetry::{ProfilePhase, ProfileReport, SharedSink, VecSink};
use sg_workloads::{prepare, CalibrationOptions, PreparedWorkload, Workload};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Steady rates of the capacity ladder (req/s), about 1.165× apart,
/// searched by bisection. On a 2-CPU host the median latency crosses
/// the QoS near 1 680 req/s, well inside the 1 545–1 800 step, so the
/// chosen rung repeats from run to run.
const LADDER_RPS: [f64; 8] = [720.0, 840.0, 980.0, 1140.0, 1330.0, 1545.0, 1800.0, 2100.0];
/// The fixed rate for latency and CPU cost, below the capacity this
/// substrate reaches on a 2-CPU host.
const FIXED_RPS: f64 = 800.0;
/// Warmup before measurement starts (wall clock).
const WARMUP: SimTime = SimTime::from_millis(500);
/// Time after the last arrival for in-flight requests to finish.
const DRAIN: SimDuration = SimDuration::from_millis(200);
/// Share of `--seconds` for the fixed-rate run; the rest is split
/// evenly over the [`BISECTION_STEPS`] ladder rungs a search tries.
const FIXED_SHARE: f64 = 0.4;
/// Rungs one bisection of [`LADDER_RPS`] tries: about log2(len + 1).
const BISECTION_STEPS: f64 = 3.0;
/// A rung passes only if at least this share of its requests complete.
const MIN_COMPLETED: f64 = 0.99;
/// Longest gap kept between replayed boosts.
const REPLAY_MAX_GAP: Duration = Duration::from_millis(1);

/// One steady-rate live run: its config and arrivals.
struct Step {
    rate: f64,
    cfg: SimConfig,
    arrivals: Vec<SimTime>,
}

impl Step {
    fn new(pw: &PreparedWorkload, rate: f64, measure: SimDuration, seed: u64) -> Step {
        let last = WARMUP + measure;
        let mut cfg = pw.cfg.clone();
        cfg.measure_start = WARMUP;
        cfg.end = last + DRAIN;
        cfg.seed = seed;
        let arrivals = SpikePattern::constant(rate).arrivals(SimTime::ZERO, last);
        Step {
            rate,
            cfg,
            arrivals,
        }
    }
}

/// A finished live run with its host cost.
struct LiveRun {
    result: RunResult,
    stats: LiveStats,
    usage: Usage,
    wall: Duration,
    /// Latencies of the requests completed after warmup, ns.
    latencies: Vec<u64>,
}

impl LiveRun {
    /// Percentile `q` of the measured latencies, ms.
    fn p_ms(&mut self, q: f64) -> f64 {
        percentile(&mut self.latencies, q) as f64 / 1e6
    }
}

fn run(step: &Step, factory: &dyn ControllerFactory, opts: LiveOpts) -> LiveRun {
    let u0 = Usage::now();
    let t0 = Instant::now();
    let (result, stats) =
        run_live_with_stats(step.cfg.clone(), factory, step.arrivals.clone(), opts);
    let wall = t0.elapsed();
    let usage = Usage::now().since(u0);
    LiveRun {
        latencies: latencies_ns(&result.points, WARMUP),
        result,
        stats,
        usage,
        wall,
    }
}

/// Conservation check of one live run, and (`lossless`) that neither
/// the FirstResponder queue nor the telemetry ring dropped anything.
fn check_live(out: &mut Outcome, name: &str, step: &Step, run: &LiveRun, lossless: bool) {
    let r = &run.result;
    let expected = step.arrivals.iter().filter(|&&t| t <= step.cfg.end).count() as u64;
    out.checks.check(
        &format!("{name}_conservation"),
        r.injected == expected
            && r.completed == r.points.len() as u64
            && r.completed + r.dropped <= r.injected,
        format!(
            "scheduled {expected}, injected {}, completed {}, dropped {}, {} points",
            r.injected,
            r.completed,
            r.dropped,
            r.points.len()
        ),
    );
    if !lossless {
        return;
    }
    out.checks.check(
        &format!("{name}_no_substrate_drops"),
        run.stats.fr_dropped == 0 && run.stats.telemetry_dropped == 0,
        format!(
            "fr_dropped {}, telemetry_dropped {}",
            run.stats.fr_dropped, run.stats.telemetry_dropped
        ),
    );
}

/// Replay the recorded boosts through a standalone FirstResponder
/// runtime whose apply closure timestamps each landing; returns the
/// submit→apply latency of each, ns.
fn replay_handoff(out: &mut Outcome, boosts: &[Boost], slots: usize) -> Vec<u64> {
    let landed = Arc::new(Mutex::new(Vec::with_capacity(boosts.len())));
    let sink = Arc::clone(&landed);
    let queue = LiveOpts::default().fr_queue_capacity;
    let mut fr = FrRuntime::spawn(slots, 0, queue, move |_| {
        sink.lock()
            .expect("landing log poisoned")
            .push(Instant::now());
    });
    let mut submitted = Vec::with_capacity(boosts.len());
    let mut due = Instant::now();
    for (i, b) in boosts.iter().enumerate() {
        if i > 0 {
            due += (b.at - boosts[i - 1].at).min(REPLAY_MAX_GAP);
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        submitted.push(Instant::now());
        fr.submit(FreqUpdate {
            from: b.node,
            container: b.id,
            level: b.level,
        });
    }
    let dropped = fr.dropped();
    let applied = fr.shutdown();
    let landed = std::mem::take(&mut *landed.lock().expect("landing log poisoned"));
    out.checks.check(
        "fr_replay_complete",
        dropped == 0 && applied as usize == boosts.len() && landed.len() == boosts.len(),
        format!(
            "{} boosts replayed, {applied} applied, {dropped} dropped",
            boosts.len()
        ),
    );
    // One producer, one FIFO consumer: the i-th landing is the i-th submit.
    submitted
        .iter()
        .zip(&landed)
        .map(|(s, l)| l.duration_since(*s).as_nanos() as u64)
        .collect()
}

/// `live_chain`: capacity ladder plus a fixed-rate run (`--trace 0`), or
/// paired untraced/traced fixed-rate runs (`--trace 1`).
pub fn live_chain(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let budget = args.seconds as f64;
    let fixed_len = SimDuration::from_secs_f64(budget * FIXED_SHARE);
    let rung_len = SimDuration::from_secs_f64(budget * (1.0 - FIXED_SHARE) / BISECTION_STEPS);

    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut schedule_ns = Vec::new();
    let mut built = None;
    repeat_for(SETUP_MIN_TIME, SETUP_REPS, || {
        let t0 = Instant::now();
        let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
        let prepared = t0.elapsed();
        let fixed = Step::new(&pw, FIXED_RPS, fixed_len, args.seed);
        let ladder: Vec<Step> = LADDER_RPS
            .iter()
            .map(|&rate| Step::new(&pw, rate, rung_len, args.seed))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        prepare_s.push(prepared.as_secs_f64());
        schedule_ns.push((t0.elapsed() - prepared).as_nanos() as f64);
        built = Some((pw, fixed, ladder));
    });
    let (pw, fixed, ladder) = built.expect("at least one set-up");
    let qos = pw.qos;
    out.param("workload", "CHAIN (calibrated)");
    out.param("controller", "surgeguard");
    out.param("qos_ms", qos.as_secs_f64() * 1e3);
    out.param("fixed_rps", FIXED_RPS);
    out.param("fixed_measure_s", fixed_len.as_secs_f64());
    out.param("ladder_rps", LADDER_RPS.to_vec());
    out.param("rung_measure_s", rung_len.as_secs_f64());
    out.param("warmup_s", WARMUP.as_secs_f64());

    let factory = SurgeGuardFactory::full();
    let mut base = run(&fixed, &factory, LiveOpts::default());
    check_live(&mut out, "fixed", &fixed, &base, true);
    let req = base.result.completed as f64;
    out.attempted = base.result.injected;
    out.failed = base.result.injected - base.result.completed;
    let t0 = Instant::now();
    let report = RunReport::from_points(
        &base.result.points,
        qos,
        WARMUP,
        fixed.cfg.end,
        base.result.avg_cores,
        base.result.energy_j,
    );
    let report_ms = t0.elapsed().as_secs_f64() * 1e3;
    let p98_ms = base.p_ms(98.0);
    out.paper_outputs(args.trace, p98_ms, &report);

    if args.trace {
        let tf = TimedFactory::new(&factory);
        let profile = VecSink::shared();
        let opts = LiveOpts {
            profile: Some(profile.clone() as SharedSink),
            ..LiveOpts::default()
        };
        let traced = run(&fixed, &tf, opts);
        check_live(&mut out, "traced", &fixed, &traced, true);
        let report =
            ProfileReport::from_events(&profile.take()).expect("a profiled run emits its report");
        let c = tf.tally();
        let traced_cpu = traced.usage.cpu_ns() as f64;
        out.set("workloads.prepare_s", median(&prepare_s));
        out.set("loadgen.arrivals", fixed.arrivals.len() as f64);
        out.set(
            "loadgen.arrival_ns",
            median(&schedule_ns)
                / (fixed.arrivals.len() + ladder.iter().map(|s| s.arrivals.len()).sum::<usize>())
                    as f64,
        );
        out.set("loadgen.report_ms", report_ms);
        c.report(&mut out, traced.result.clamped_actions, traced_cpu);
        out.set("fr.live_applied", traced.stats.fr_applied as f64);
        out.set("fr.live_dropped", traced.stats.fr_dropped as f64);
        let slots = pw.cfg.graph.len() * pw.cfg.max_replicas as usize;
        let mut handoff = replay_handoff(&mut out, &c.boosts, slots);
        out.set(
            "fr.handoff_us_p50",
            percentile(&mut handoff, 50.0) as f64 / 1e3,
        );
        out.set(
            "fr.handoff_us_p99",
            percentile(&mut handoff, 99.0) as f64 / 1e3,
        );

        out.set(
            "live.deliveries_per_req",
            base.stats.deliveries as f64 / req,
        );
        out.set(
            "live.user_cpu_ms_per_kreq",
            base.usage.user_ns as f64 / req / 1e3,
        );
        out.set(
            "live.sys_cpu_ms_per_kreq",
            base.usage.sys_ns as f64 / req / 1e3,
        );
        out.set(
            "live.ctx_switches_per_req",
            base.usage.ctx_switches as f64 / req,
        );
        out.set(
            "live.client_overrun_ms",
            (base.wall.as_secs_f64() - fixed.cfg.end.as_secs_f64()) * 1e3,
        );
        let phase = |p: ProfilePhase| report.phases.iter().find(|s| s.phase == p);
        let p99 = |p: ProfilePhase| phase(p).map_or(0.0, |s| s.p99_ns as f64);
        let total = |p: ProfilePhase| phase(p).map_or(0.0, |s| s.total_ns as f64);
        out.set("live.timer_slop_p99_us", p99(ProfilePhase::TimerSlop) / 1e3);
        out.set("live.pool_wait_p99_us", p99(ProfilePhase::PoolWait) / 1e3);
        out.set("live.fr_hook_p99_ns", p99(ProfilePhase::FrHook));
        out.set("live.tick_us_p99", p99(ProfilePhase::LiveTick) / 1e3);
        let service = total(ProfilePhase::WorkerService);
        out.set(
            "live.worker_busy_pct",
            100.0 * ratio(service, service + total(ProfilePhase::WorkerIdle)),
        );
        out.set("trace.coverage_pct", coverage_pct(&report));
        out.set(
            "trace.overhead_pct",
            100.0 * (traced_cpu / base.usage.cpu_ns() as f64 - 1.0),
        );
        return out;
    }

    // Highest rung that holds, by bisection: every rung below `lo` is
    // known to hold, every rung from `hi` up to fail. Rungs above capacity
    // overload the substrate by design, so only passing rungs are held
    // to the no-drop check.
    let (mut lo, mut hi): (usize, usize) = (0, ladder.len());
    let mut rungs = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let step = &ladder[mid];
        let mut r = run(step, &factory, LiveOpts::default());
        let p50 = r.p_ms(50.0);
        let p98 = r.p_ms(98.0);
        let done = r.result.completed as f64 / r.result.injected as f64;
        let pass =
            !r.latencies.is_empty() && p50 <= qos.as_secs_f64() * 1e3 && done >= MIN_COMPLETED;
        rungs.push(format!(
            "{:.0} req/s: p50 {p50:.3} ms, p98 {p98:.3} ms, {:.2}% completed, {}",
            step.rate,
            100.0 * done,
            if pass { "pass" } else { "fail" }
        ));
        check_live(&mut out, &format!("rung_{:.0}", step.rate), step, &r, pass);
        if pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let capacity = lo.checked_sub(1).map_or(0.0, |i| ladder[i].rate);
    out.param("ladder", rungs);

    out.set("setup_s", median(&setup_s));
    out.set("ns_per_req", base.usage.cpu_ns() as f64 / req);
    out.set("capacity_rps", capacity);
    out.set("completed_pct", 100.0 * req / base.result.injected as f64);
    out.set("p50_ms", base.p_ms(50.0));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}
