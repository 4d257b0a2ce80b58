//! `sg-live` — a wall-clock live-execution backend for SurgeGuard.
//!
//! The discrete-event simulator (`sg-sim`) answers "what would the
//! controllers do"; this crate answers "do they still do it when the
//! substrate is real": real worker threads blocked on real connection
//! pools, a real SPSC coordinator/worker pair on the packet hot path, and
//! wall-clock time everywhere. Controllers run **unmodified** — the same
//! `sg_sim::controller::Controller` objects the simulator drives are
//! handed to per-node control threads here, fed `NodeSnapshot`s on their
//! own tick cadence and per-packet rx-hook callbacks, and their actions
//! are enforced with the simulator's exact clamping rules.
//!
//! Substitutions for hardware the test box does not have:
//!
//! | real system              | live backend                              |
//! |--------------------------|-------------------------------------------|
//! | allocated cores × DVFS   | token-bucket [`throttle::CoreGate`]       |
//! | CPU work                 | chunked `thread::sleep` through the gate  |
//! | kernel rx hook           | delivery closure on the [`net::DelayLine`]|
//! | MSR write (freq change)  | parked `FrRuntime` worker + apply-delay   |
//! | cross-node network       | injected latency from `sg_sim::network`   |
//!
//! The paper's FirstResponder worker polls on a dedicated sibling
//! hyperthread. Here the worker shares a small host with the emulated
//! containers, so it parks when its queue is empty and `submit` unparks
//! it; the telemetry drainer parks for a millisecond between drains. On
//! a 2-CPU Xeon VM (`perfbench --workload live_chain`) that took an idle
//! worker from about 93 % of a CPU to none, process CPU from 1.26 ms to
//! 0.18 ms per request at 800 req/s (medians of 10 runs), and the
//! replayed submit→apply hand-off from p50 0.8 µs / p99 76–79 µs to
//! p50 5.5–6.5 µs / p99 37–53 µs.
//!
//! Entry point: [`run_live`] (or [`run_live_with_stats`] for substrate
//! diagnostics), returning the same `RunResult` as `Simulation::run`, so
//! every report, figure, and assertion works on either backend. The
//! [`conformance`] module holds the shared directional assertions that
//! `tests/conformance.rs` runs against both substrates.

pub mod clock;
pub mod cluster;
pub mod conformance;
pub mod driver;
pub mod fault;
pub mod net;
pub mod pool;
pub mod scrape;
pub mod sync;
pub mod throttle;
pub mod worker;

pub use clock::LiveClock;
pub use conformance::{run_backend, Backend};
pub use driver::{run_live, run_live_with_stats, LiveOpts, LiveStats};
pub use pool::PoolStats;
pub use scrape::MetricsServer;
