//! `sg-loadtest` rejects a malformed command line before doing any work:
//! exit status 2 and a message that names the offending flag.

use std::process::Command;

fn reject(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sg-loadtest"))
        .args(args)
        .output()
        .expect("run sg-loadtest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr}");
}

#[test]
fn unknown_flag_exits_2() {
    reject(&["--bogus-flag", "1"], "--bogus-flag");
}

#[test]
fn flag_without_value_exits_2() {
    reject(&["--rate"], "--rate");
    reject(&["--rate", "--duration", "1"], "--rate");
}

#[test]
fn unparsable_value_exits_2() {
    reject(&["--duration", "abc"], "--duration");
}

#[test]
fn repeated_flag_exits_2() {
    reject(&["--seed", "1", "--seed", "2"], "--seed");
}
