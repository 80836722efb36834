//! Records the compiler and the enabled target features, so every
//! result file says what built the binary it came from.

use std::process::Command;

fn main() {
    // Without this, cargo reruns the script (and rebuilds the crate)
    // whenever anything under the package directory changes — and every
    // run writes scratch and result files there.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_TARGET_FEATURES={features}");
}
