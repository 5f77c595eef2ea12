fn main() -> std::process::ExitCode {
    perm_benchmark::cli::main(std::env::args().skip(1).collect())
}
