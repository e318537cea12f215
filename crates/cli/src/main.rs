//! `ranking-facts` — the Ranking Facts command line.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rf_cli::run(args) {
        Ok(output) => {
            let mut stdout = io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // The reader closed the pipe (`ranking-facts … | head`): it
                // has all the output it wants.
                Err(err) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("ranking-facts: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(err) => {
            eprintln!("ranking-facts: {err}");
            if matches!(err, rf_cli::CliError::Usage { .. }) {
                eprintln!("\n{}", rf_cli::usage());
            }
            ExitCode::from(u8::try_from(err.exit_code()).unwrap_or(1))
        }
    }
}
