//! Black-box test of `pnp-check`'s out-of-core scratch space: a search
//! that spills without a caller-chosen directory works in a fresh
//! `pnp-spill-*` directory under the temp dir, and removes it however the
//! search ends. Each run below gets a private `TMPDIR` and must leave it
//! empty.

use std::path::{Path, PathBuf};
use std::process::Command;

fn spec(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(name)
}

/// A fresh, empty directory for this test process.
fn fresh_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pnp-spill-cleanup-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `pnp-check` with `TMPDIR` set to `tmp`, asserts its exit code,
/// and returns its standard output.
fn pnp_check(tmp: &Path, args: &[&str], want_code: i32) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pnp-check"))
        .args(args)
        .env("TMPDIR", tmp)
        .output()
        .expect("pnp-check starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert_eq!(
        output.status.code(),
        Some(want_code),
        "pnp-check {args:?}\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn assert_empty(tmp: &Path, what: &str) {
    let left: Vec<_> = std::fs::read_dir(tmp)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "{what} left {left:?} in its TMPDIR");
}

#[test]
fn spilling_runs_leave_the_temp_dir_as_they_found_it() {
    let tmp = fresh_dir("tmp");
    let wire = spec("wire.pnp");
    let wire = wire.to_str().unwrap();
    let buggy = spec("bridge_buggy.pnp");
    let buggy = buggy.to_str().unwrap();

    let runs: [(&str, Vec<&str>, i32); 4] = [
        ("holds", vec![wire, "--spill-at", "0"], 0),
        (
            "limit",
            vec![wire, "--spill-at", "0", "--budget", "states=10"],
            3,
        ),
        ("violation", vec![buggy, "--spill-at", "0"], 1),
        (
            "disk visited at two threads",
            vec![wire, "--visited", "disk", "--threads", "2"],
            0,
        ),
    ];
    for (what, args, code) in runs {
        pnp_check(&tmp, &args, code);
        assert_empty(&tmp, what);
    }
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn a_checkpoint_of_a_spilled_search_resumes_after_cleanup() {
    // The checkpoint is written while the search is out of core; it must
    // not refer to the scratch directory that is gone when the run ends.
    let tmp = fresh_dir("resume-tmp");
    let ckpt_dir = fresh_dir("resume-ckpt");
    let base = ckpt_dir.join("wire.ckpt");
    let base = base.to_str().unwrap();
    let wire = spec("wire.pnp");
    let wire = wire.to_str().unwrap();

    pnp_check(
        &tmp,
        &[
            wire,
            "--spill-at",
            "0",
            "--budget",
            "states=10",
            "--checkpoint",
            base,
        ],
        3,
    );
    assert_empty(&tmp, "the interrupted run");
    let resumed = pnp_check(&tmp, &[wire, "--resume", base], 0);
    assert_empty(&tmp, "the resumed run");
    let fresh = pnp_check(&tmp, &[wire], 0);
    let verdicts = |out: &str| {
        out.lines()
            .filter(|line| line.contains("HOLDS"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&resumed), verdicts(&fresh));
    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
}
