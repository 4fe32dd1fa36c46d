//! `pcmax` — command-line interface for the scheduling toolkit.
//!
//! ```text
//! pcmax generate --dist "U(1,100)" -m 10 -n 50 --seed 1 > inst.json
//! pcmax bounds   -i inst.json
//! pcmax solve    -i inst.json --algo pptas --eps 0.3
//! pcmax compare  -i inst.json
//! pcmax simulate -i inst.json --procs 1,2,4,8,16
//! pcmax trace par-ptas inst.json --out trace.json --summary
//! ```

mod args;
mod commands;
mod io;

use std::process::ExitCode;

/// Exits 2 with the usage text when the arguments do not parse, and 1 with
/// the error alone when a parsed command fails (an unknown solver name, an
/// instance the solver refuses, a daemon's error answer).
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match commands::run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
