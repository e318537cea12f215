//! `scenario_cs | head -2` closes the pipe before the output is written; a
//! regeneration binary must then end quietly with exit 0 rather than panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_quietly_with_exit_0() {
    for (bin, path) in [
        ("scenario_cs", env!("CARGO_BIN_EXE_scenario_cs")),
        ("figure2_stability", env!("CARGO_BIN_EXE_figure2_stability")),
    ] {
        let mut child = Command::new(path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|err| panic!("spawn {bin}: {err}"));
        // The binary builds a label before it writes anything, so the pipe
        // is closed by the time the first line goes out.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for the binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{bin} stderr: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{bin} stderr: {stderr}");
    }
}
