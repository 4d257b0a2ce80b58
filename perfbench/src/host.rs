//! Host-side measurements and provenance: process CPU time, context
//! switches and peak RSS from `getrusage(2)`, and the host/toolchain/
//! revision fingerprint every result record carries.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux (every field after the two times is a
/// `long`).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage(2) with the 64-bit Linux struct layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide resource counters (all threads, live and joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU, ns.
    pub user_ns: u64,
    /// System CPU, ns.
    pub sys_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size, KiB.
    pub max_rss_kb: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` with the
        // 64-bit Linux layout (checked by the `compile_error!` gate
        // above), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
        Usage {
            user_ns: ns(&ru.ru_utime),
            sys_ns: ns(&ru.ru_stime),
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
            max_rss_kb: ru.ru_maxrss as u64,
        }
    }

    /// Counters accumulated since `earlier` (peak RSS is the current peak).
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_ns: self.user_ns - earlier.user_ns,
            sys_ns: self.sys_ns - earlier.sys_ns,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kb: self.max_rss_kb,
        }
    }

    /// User + system CPU, ns.
    pub fn cpu_ns(self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    Usage::now().max_rss_kb as f64 / 1024.0
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// Trimmed stdout of a command, or `None` if it cannot run or fails.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(revision, dirty)` of the checkout in the working directory. Git is
/// pointed at `./.git` explicitly so it never searches parent
/// directories; a checkout without `.git` reports `(None, None)`.
fn git_state() -> (Option<String>, Option<bool>) {
    if !Path::new(".git").exists() {
        return (None, None);
    }
    let git = |args: &[&str]| {
        command_output(
            Command::new("git")
                .args(args)
                .env("GIT_DIR", ".git")
                .env("GIT_WORK_TREE", "."),
        )
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

/// Host, toolchain and revision fingerprint.
pub fn provenance() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_output(Command::new("rustc").arg("-V"));
    let (git_rev, git_dirty) = git_state();
    json!({
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": rustc,
        "git_rev": git_rev,
        "git_dirty": git_dirty,
    })
}
