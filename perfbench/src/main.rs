//! Untraced benchmark run: end-to-end metrics only, with the system
//! allocator and no counting hooks.

fn main() -> std::process::ExitCode {
    fnp_perfbench::main_with(None)
}
