fn main() -> std::process::ExitCode {
    perfbench::main()
}
