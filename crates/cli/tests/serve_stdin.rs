//! `rds serve --stdin` reads arrivals from the process's stdin. Run as
//! a child with stdin closed, so the test never waits on the stdin of
//! whatever launched the test binary.

use std::process::{Command, Stdio};

#[test]
fn serve_stdin_line_protocol() {
    // EOF on the first read must drain cleanly, not hang or panic.
    let out = Command::new(env!("CARGO_BIN_EXE_rds"))
        .args(["serve", "--m", "2", "--tasks", "0", "--stdin"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("| admitted"));
}
