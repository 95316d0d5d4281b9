//! The harness with the repository's counting allocator registered, for
//! `--trace 1` runs (allocation counts per simulated ms and peak live heap).

#[global_allocator]
static ALLOC: hostcc_perf::CountingAllocator = hostcc_perf::CountingAllocator;

fn main() -> std::process::ExitCode {
    perfbench::main()
}
