//! Host-speed calibration.
//!
//! A shared host runs this benchmark at a speed that drifts by a quarter
//! or more over a minute (other tenants on the same cores), and the drift
//! moves every wall time the benchmark measures. A fixed reference kernel
//! timed right before and after each measured part tracks that drift, so
//! a time can be scaled to what it would have been on a host where one
//! pass of the kernel takes its reference time. The kernel lives here, not
//! in the program, so a change to the program never changes the reference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference durations of [`cpu_pass_s`] and [`sweep_s`], seconds: about
/// what they take on a quiet 2-vCPU Xeon VM, so scaled figures read
/// close to wall-clock ones there.
const REF_CPU_S: f64 = 0.015;
const REF_SWEEP_S: f64 = 0.012;

/// The reference kernel one workload is timed against.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Add the memory sweep to the CPU pass. The obsd workload copies and
    /// renders the whole metric registry on every request, so its speed
    /// follows memory bandwidth, which the CPU pass alone does not track.
    pub sweep: bool,
}

impl Reference {
    /// Seconds one pass of the kernel takes now.
    pub fn pass_s(self) -> f64 {
        cpu_pass_s() + if self.sweep { sweep_s() } else { 0.0 }
    }

    /// The factor that scales a time measured while one pass took `pass_s`
    /// to a host at reference speed; it is also that host speed relative
    /// to the reference.
    pub fn scale(self, pass_s: f64) -> f64 {
        (REF_CPU_S + if self.sweep { REF_SWEEP_S } else { 0.0 }) / pass_s
    }
}

/// Seconds one CPU pass of the reference kernel takes now. It mixes
/// the program's kinds of work: ordered-map inserts, lookups and
/// removes (indexes), small allocations and formatting (telemetry,
/// decode), and a register interpreter (the BPF VM). It ends with
/// independent multiply-add chains: their speed falls the most when
/// another tenant runs on the sibling hyperthread, and without them the
/// kernel slowed down less than the workloads did.
fn cpu_pass_s() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut m: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..20_000 {
        let k = next() % 50_000;
        m.insert(k, k ^ 7);
    }
    let mut hit = 0u64;
    for _ in 0..40_000 {
        if let Some(v) = m.get(&(next() % 50_000)) {
            hit = hit.wrapping_add(*v);
        }
    }
    for _ in 0..10_000 {
        m.remove(&(next() % 50_000));
    }
    black_box(hit);
    let mut names: Vec<String> = (0..5_000)
        .map(|i| format!("ou_{}_{}", next() % 97, i))
        .collect();
    names.sort();
    black_box(&names);
    let prog: [u8; 16] = [0, 1, 2, 3, 0, 2, 1, 3, 1, 0, 3, 2, 2, 3, 0, 1];
    let mut r = [1u64, 2, 3, 4];
    for i in 0..400_000usize {
        match black_box(prog[i & 15]) {
            0 => r[0] = r[0].wrapping_add(r[1]),
            1 => r[1] ^= r[2].rotate_left(5),
            2 => r[2] = r[2].wrapping_mul(r[3] | 1),
            _ => r[3] = r[3].wrapping_sub(r[0] >> 3),
        }
    }
    black_box(r);
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..2_000_000u64 {
        for (j, e) in lanes.iter_mut().enumerate() {
            *e = e
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ j as u64);
        }
    }
    black_box(lanes);
    t0.elapsed().as_secs_f64()
}

thread_local! {
    static SWEPT: Vec<u64> = (0..(4u64 << 20)).collect();
}

/// Seconds two sequential sweeps over a 32 MiB buffer take now.
fn sweep_s() -> f64 {
    SWEPT.with(|v| {
        let t0 = Instant::now();
        for _ in 0..2 {
            let s = v.iter().fold(0u64, |a, &b| a.wrapping_add(b ^ (a >> 3)));
            black_box(s);
        }
        t0.elapsed().as_secs_f64()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_proportional_to_host_speed() {
        for sweep in [false, true] {
            let k = Reference { sweep };
            // The scale of a one-second pass is the reference pass time.
            let ref_s = k.scale(1.0);
            assert_eq!(k.scale(ref_s), 1.0);
            // At half the reference speed the pass and the measured time
            // both double; the scaled time is the same.
            assert!((2.0 * k.scale(2.0 * ref_s) - 1.0).abs() < 1e-12);
            assert!(k.pass_s() > 0.0);
        }
        assert_eq!(Reference { sweep: false }.scale(1.0), REF_CPU_S);
        assert_eq!(
            Reference { sweep: true }.scale(1.0),
            REF_CPU_S + REF_SWEEP_S
        );
    }
}
