fn main() -> std::process::ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perf_ledger measures optimized builds only: run it with `cargo run --release`");
        return std::process::ExitCode::from(2);
    }
    perf_ledger::cli::main(std::env::args().skip(1).collect())
}
