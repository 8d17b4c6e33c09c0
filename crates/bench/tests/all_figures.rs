//! `all_figures` reports a child's usage error as its own, without a panic.

use std::process::Command;

#[test]
fn bad_flag_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--instructions", "abc"])
        .output()
        .expect("all_figures starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("all_figures: fig4: usage error"),
        "stderr:\n{stderr}"
    );
}
