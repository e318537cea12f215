//! `ranking-facts … | head` closes the pipe before the output is written;
//! the binary must end quietly with exit 0 rather than panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_quietly_with_exit_0() {
    // 5000 German rows are ~220 KB, more than a pipe buffers, so the write
    // hits the closed pipe however the two processes are scheduled.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ranking-facts"))
        .args([
            "generate",
            "--dataset",
            "german",
            "--rows",
            "5000",
            "--seed",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ranking-facts");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for ranking-facts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn other_write_errors_exit_1_with_a_message() {
    // Writes to /dev/full fail with ENOSPC, not a broken pipe.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let output = Command::new(env!("CARGO_BIN_EXE_ranking-facts"))
        .args([
            "generate",
            "--dataset",
            "german",
            "--rows",
            "3",
            "--seed",
            "1",
        ])
        .stdout(full)
        .output()
        .expect("run ranking-facts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.starts_with("ranking-facts: "), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
}
