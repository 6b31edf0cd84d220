//! Records the rustflags the benchmark was compiled with, so a run can
//! print them and refuse to measure a build that lost
//! `-C target-cpu=native` (cargo reads the repository's
//! `.cargo/config.toml` only when invoked from inside the repository
//! tree; `--manifest-path` from elsewhere silently drops it).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=BENCH_RUSTFLAGS={}",
        flags.split('\x1f').collect::<Vec<_>>().join(" ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
