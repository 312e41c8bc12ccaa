//! The `aurix-contention` command-line tool.

use aurix_contention::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match cli::parse_invocation(&args) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}{}", cli::USAGE, aurix_contention::mbta::args::FLAGS_HELP);
            std::process::exit(2);
        }
    };
    if let Err(e) = cli::run_invocation(inv) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
