//! `chronus-sweep list` and `status` only read the store: with no store
//! directory they report every cell missing and create nothing.

use std::process::Command;

#[test]
fn list_and_status_create_no_store() {
    let cwd = std::env::temp_dir().join(format!("chronus-sweep-ro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for args in [&["list"][..], &["list", "smoke"], &["status", "smoke"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_chronus-sweep"))
            .args(args)
            .arg("--quiet")
            .current_dir(&cwd)
            .env_remove("CHRONUS_GRID_DIR")
            .env_remove("CHRONUS_FAULTS")
            .output()
            .expect("chronus-sweep starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}\n{stdout}\n{stderr}");
        if args[0] == "status" {
            assert!(
                stdout.contains("grid=smoke cells=2 cached=0 missing=2 corrupt=0 failed=0"),
                "{stdout}"
            );
        }
        let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(left.is_empty(), "{args:?} left {left:?} behind");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
