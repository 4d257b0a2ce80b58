//! `sg-perfbench`: the repository benchmark. One command runs one named
//! workload, checks its outputs, and prints every metric that
//! `BENCHMARK.json` declares, by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain_surge --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced
//! and traced passes side by side and prints the per-layer metrics. The
//! last stdout line is the result object; the line before it is the full
//! record with provenance, workload parameters and check outcomes. A
//! failing check is named on stderr and the process exits 1. See
//! `perfbench/README.md` for the workloads and the metric map.

mod host;
mod layers;
mod live;
mod sim;

use serde_json::{json, Value};
use sg_core::time::SimTime;
use sg_core::violation::LatencyPoint;
use sg_loadgen::RunReport;
use sg_telemetry::{ProfilePhase, ProfileReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Default workload seed; see README.md for the held-out seed.
const DEFAULT_SEED: u64 = 1;

/// Set-up repeats at least this often, and for at least
/// [`SETUP_MIN_TIME`], so that `setup_s` is the median of warm repeats
/// even when one set-up takes well under a millisecond.
pub const SETUP_REPS: usize = 11;
/// See [`SETUP_REPS`].
pub const SETUP_MIN_TIME: Duration = Duration::from_millis(500);

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("sg-perfbench: {msg}");
    eprintln!(
        "usage: sg-perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage_exit(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage_exit(&format!("{flag}: '{value}' is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit("--trace must be 0 or 1"),
                }
            }
            _ => usage_exit(&format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_exit("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage_exit(&format!("unknown workload '{workload}'"));
    }
    if !(1..=600).contains(&seconds) {
        usage_exit("--seconds must be between 1 and 600");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

const WORKLOADS: [&str; 3] = ["chain_surge", "cluster_200", "live_chain"];

/// Output checks of one run. A failed check is reported on stderr by
/// name and makes the run exit 1.
#[derive(Default)]
pub struct Checks {
    results: Vec<(String, bool, String)>,
}

impl Checks {
    /// Record check `name`; `detail` is the evidence either way.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("CHECK FAILED {name}: {detail}");
        }
        self.results.push((name.to_string(), ok, detail));
    }

    fn all_passed(&self) -> bool {
        self.results.iter().all(|(_, ok, _)| *ok)
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.results
                .iter()
                .map(|(name, ok, detail)| {
                    (name.clone(), json!({ "ok": *ok, "detail": detail.clone() }))
                })
                .collect(),
        )
    }
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name (units come from `BENCHMARK.json`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests attempted in the timed operations.
    pub attempted: u64,
    /// Of those, requests that did not complete.
    pub failed: u64,
    /// Workload parameters for the record.
    pub params: Vec<(String, Value)>,
    /// Output checks.
    pub checks: Checks,
}

impl Outcome {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a workload parameter.
    pub fn param(&mut self, name: &str, value: impl Into<Value>) {
        self.params.push((name.to_string(), value.into()));
    }

    /// Record the paper's QoS outputs of a run: per-layer metrics when
    /// traced, record parameters otherwise.
    pub fn paper_outputs(&mut self, trace: bool, p98_ms: f64, report: &RunReport) {
        let outputs = [
            ("paper.p98_ms", p98_ms),
            ("paper.vv_s2", report.violation_volume),
            ("paper.energy_j", report.energy_j),
        ];
        for (name, value) in outputs {
            if trace {
                self.set(name, value);
            } else {
                self.param(name, value);
            }
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latencies (ns) of the requests that completed at or after `from`.
pub fn latencies_ns(points: &[LatencyPoint], from: SimTime) -> Vec<u64> {
    points
        .iter()
        .filter(|p| p.completion >= from)
        .map(|p| p.latency.as_nanos())
        .collect()
}

/// Share of the profiled run's wall time that its phase table covers,
/// %, counted as the program's own profiler audit counts it: every phase
/// that does work, plus worker idle time. Live phases run on many threads
/// at once, so there the share can exceed 100 %.
pub fn coverage_pct(profile: &ProfileReport) -> f64 {
    let covered: u64 = profile
        .phases
        .iter()
        .filter(|p| p.phase == ProfilePhase::WorkerIdle || !p.phase.is_blocking())
        .map(|p| p.total_ns)
        .sum();
    100.0 * ratio(covered as f64, profile.wall_ns as f64)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Repeat `op` until `budget` has elapsed, at least `min` times.
pub fn repeat_for(budget: Duration, min: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        op();
        done += 1;
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {list} entry without '{k}'"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let spec_text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        eprintln!("sg-perfbench: cannot read BENCHMARK.json in the working directory: {e}");
        std::process::exit(2);
    });
    let spec = serde_json::from_str(&spec_text).unwrap_or_else(|e| {
        eprintln!("sg-perfbench: BENCHMARK.json is not valid JSON: {e}");
        std::process::exit(2);
    });
    let wanted = declared(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );

    let mut out = match args.workload.as_str() {
        "chain_surge" => sim::chain_surge(&args),
        "cluster_200" => sim::cluster_200(&args),
        "live_chain" => live::live_chain(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };

    // Every declared metric is printed. A per-layer metric the workload
    // did not set belongs to a layer this workload bypasses: it did no
    // work, so it reads 0. End-to-end metrics must all be measured.
    for name in out.metrics.keys() {
        assert!(
            wanted.iter().any(|(w, _)| w == name),
            "metric '{name}' is not declared in BENCHMARK.json for this mode"
        );
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let value = match out.metrics.get(name.as_str()) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric '{name}' was not measured"),
        };
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        metrics.push((
            name.clone(),
            json!({ "value": value, "unit": unit.clone() }),
        ));
    }
    let metrics = Value::Object(metrics);
    out.checks.check(
        "requests_attempted",
        out.attempted > 0,
        format!("{} requests attempted", out.attempted),
    );
    let correct = out.checks.all_passed();

    let record = json!({
        "record": {
            "workload": args.workload.clone(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": host::provenance(),
            "params": Value::Object(std::mem::take(&mut out.params)),
            "checks": out.checks.to_json(),
            "metrics": metrics.clone(),
        }
    });
    println!("{record}");
    let result = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    });
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
