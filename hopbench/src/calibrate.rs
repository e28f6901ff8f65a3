//! Host-speed calibration.
//!
//! The benchmark shares its machine with other tenants, which slow its
//! CPUs by up to half for minutes at a time. A fixed integer kernel,
//! timed on the server's CPUs while the server is idle, measures how
//! fast those CPUs run right now; timing metrics are scaled by it to
//! what they would read at the reference speed below. The kernel is
//! this crate's own code, so no change to hoplite can move it.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Kernel nanoseconds per step on the development host (2-vCPU VM,
/// x86-64) in its fast state: the speed the scaled metrics are quoted
/// at.
pub const REFERENCE_NS_PER_STEP: f64 = 1.70;

/// Times the kernel: nanoseconds per step of a dependent multiply /
/// rotate chain.
pub fn kernel() -> f64 {
    let steps: u64 = 1 << 23;
    let t = Instant::now();
    let mut h = 0x1234_5678u64;
    for i in 0..steps {
        h = (h ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    }
    black_box(h);
    t.elapsed().as_nanos() as f64 / steps as f64
}

/// Runs the kernel in a child process on `cpus` (the server's CPUs;
/// `None` on an unpinned host) and returns its nanoseconds per step.
pub fn probe(exe: &Path, cpus: Option<&str>) -> Result<f64, String> {
    let mut cmd = match cpus {
        Some(list) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(list).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    let out = cmd
        .arg("calibrate")
        .output()
        .map_err(|e| format!("calibration probe: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|ns| out.status.success() && ns.is_finite() && *ns > 0.0)
        .ok_or_else(|| format!("calibration probe failed: {}", out.status))
}
