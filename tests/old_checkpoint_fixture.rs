//! A checkpoint written by `pnp-check` before the `PNPGEN02` envelope and
//! snapshot version 4 is refused by name, never misdecoded.
//!
//! The fixture `tests/fixtures/wire_pnpgen01.ckpt.{a,b}` was written by the
//! previous format's own `pnp-check`:
//!
//! ```text
//! pnp-check examples/specs/wire.pnp --checkpoint wire_pnpgen01.ckpt --budget states=10
//! ```
//!
//! so it shares no code with the current writer: it is a `PNPGEN01`
//! envelope around a version 3 snapshot, both sealed with FNV-1a.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_base() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_pnpgen01.ckpt")
}

/// Builds `pnp-check` in the target directory and profile of this test
/// binary (a no-op when it is fresh) and returns its path.
fn pnp_check() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // <target>/<profile>/deps/<test binary>
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test binary lives in <target>/<profile>/deps");
    let target_dir = profile_dir.parent().expect("profile dir has a parent");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "--quiet", "--offline", "-p", "pnp-lang"])
        .args(["--bin", "pnp-check", "--target-dir"])
        .arg(target_dir);
    if profile_dir
        .file_name()
        .is_some_and(|name| name == "release")
    {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("cargo runs");
    assert!(status.success(), "building pnp-check failed: {status}");
    profile_dir.join(format!("pnp-check{}", std::env::consts::EXE_SUFFIX))
}

#[test]
fn fixture_is_a_previous_format_checkpoint() {
    for slot in ["a", "b"] {
        let bytes = std::fs::read(fixture_base().with_extension(format!("ckpt.{slot}"))).unwrap();
        assert_eq!(&bytes[..8], b"PNPGEN01", "slot {slot} envelope magic");
        // The envelope's 24-byte header, then the snapshot's magic and
        // little-endian version.
        assert_eq!(&bytes[24..32], b"PNPSNAP1", "slot {slot} snapshot magic");
        assert_eq!(&bytes[32..36], &3u32.to_le_bytes(), "slot {slot} version");
    }
}

#[test]
fn resuming_a_previous_format_checkpoint_is_refused_by_name() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs/wire.pnp");
    let output = Command::new(pnp_check())
        .arg(&spec)
        .arg("--resume")
        .arg(fixture_base())
        .output()
        .expect("pnp-check runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("version PNPGEN01 is not supported (this build reads PNPGEN02)"),
        "stderr: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&output.stdout).contains("resuming"),
        "an old checkpoint must not be resumed"
    );
}
