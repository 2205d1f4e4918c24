//! `bpart` binary entry point — a thin shim over [`bpart_cli::dispatch`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match bpart_cli::dispatch(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("bpart: {error}");
            if matches!(error, bpart_cli::DispatchError::Parse(_)) {
                eprintln!();
                eprintln!("{}", bpart_cli::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
