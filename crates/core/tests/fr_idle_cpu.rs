//! An idle `FrRuntime` must not burn CPU: its worker parks instead of
//! polling. This binary holds a single test so that the process CPU
//! counters it reads belong to the runtime under test alone.

#[cfg(target_os = "linux")]
#[test]
fn idle_runtime_uses_under_ten_percent_of_a_cpu() {
    use sg_core::firstresponder::FrRuntime;
    use std::time::{Duration, Instant};

    let rt = FrRuntime::spawn(4, 0, 64, |_u| {});
    // Let the worker reach its idle wait before measuring.
    std::thread::sleep(Duration::from_millis(20));
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    let wall_ms = t0.elapsed().as_millis() as u64;
    let cpu_ms = process_cpu_ms() - cpu0;
    rt.shutdown();
    assert!(
        cpu_ms * 10 < wall_ms,
        "idle FrRuntime used {cpu_ms} ms of CPU in {wall_ms} ms of wall time"
    );
}

/// Process user + system CPU from `/proc/self/stat` (fields 14 and 15,
/// in USER_HZ = 100 ticks per second), in milliseconds.
#[cfg(target_os = "linux")]
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; count from after it.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric CPU field");
    // `rest` starts at field 3 (state), so utime is index 11, stime 12.
    (ticks(11) + ticks(12)) * 10
}
