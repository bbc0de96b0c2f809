//! `kadbench` command line; see `kadbench --help` and `kadbench/README.md`.

fn main() {
    // Before any thread exists: the κ sweeps read the cap when they fan out.
    kadbench::machine::pin_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(kadbench::cli::main(&args));
}
