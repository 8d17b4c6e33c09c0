//! A malformed `CHRONUS_FAULTS` is a usage error named after the binary
//! that read it, never a panic.

use std::process::Command;

#[test]
fn a_bad_fault_spec_names_the_running_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_chronus-sweep"))
        .args(["run", "smoke", "--no-cache", "--quiet"])
        .env("CHRONUS_FAULTS", "bogus:1")
        .output()
        .expect("chronus-sweep starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.starts_with("chronus-sweep: $CHRONUS_FAULTS: unknown fault key 'bogus'"),
        "stderr:\n{stderr}"
    );
}
