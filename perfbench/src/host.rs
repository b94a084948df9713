//! The host-speed reference.
//!
//! On a shared host the same code runs tens of percent faster or slower
//! from one minute to the next, with no steal time in `/proc/stat` to show
//! for it, and on-CPU time slows down with wall time. A register-only loop
//! barely slows; a fixed kernel of the benchmark's own (an in-place sort of
//! one million pseudo-random `u64`s, 8 MB) slows down with the simulator.
//! So the kernel is timed between the measured operations, and every
//! CPU-bound time is reported scaled to the kernel's nominal speed:
//!
//! ```text
//! reported = measured * REFERENCE_S / (mean kernel time around the operation)
//! ```
//!
//! A change to the repository's code cannot move the kernel, so a slower or
//! faster program still reads slower or faster; only the host's drift
//! cancels. The kernel runs outside every timed span.

use crate::{stats, Report};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's nominal time, near its median on the 2-core reference host:
/// the speed every scaled time is reported at.
pub const REFERENCE_S: f64 = 0.035;

/// Kernel samples are taken between the pieces of a long operation at
/// most this often.
const CADENCE: Duration = Duration::from_millis(400);

/// Elements sorted per kernel sample.
const ELEMENTS: usize = 1_000_000;

/// Resident memory of the kernel's buffer, in MB. The buffer is written in
/// full by every sample, so it stays resident for the whole run.
pub const BUFFER_MB: f64 = (ELEMENTS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0);

/// The kernel and its samples, in seconds.
pub struct Reference {
    buffer: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl Reference {
    /// Allocates the kernel's buffer and takes a first sample.
    pub fn new() -> Reference {
        let mut reference = Reference {
            buffer: vec![0; ELEMENTS],
            samples: Vec::new(),
            last: Instant::now(),
        };
        reference.sample();
        reference
    }

    /// Times one kernel run: refill the buffer with the same pseudo-random
    /// values and sort it in place. Returns the time it took.
    pub fn sample(&mut self) -> Duration {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for slot in self.buffer.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        black_box(&mut self.buffer).sort_unstable();
        black_box(self.buffer[ELEMENTS / 2]);
        self.last = Instant::now();
        let took = self.last - t;
        self.samples.push(took.as_secs_f64());
        took
    }

    /// Samples if [`CADENCE`] has passed since the last sample; returns the
    /// time the kernel took (zero when not due).
    pub fn between(&mut self) -> Duration {
        if self.last.elapsed() >= CADENCE {
            self.sample()
        } else {
            Duration::ZERO
        }
    }

    /// Marks the start of an operation: the index of the latest sample.
    pub fn mark(&self) -> usize {
        self.samples.len() - 1
    }

    /// Takes the closing sample of the operation started at `mark` and
    /// returns its scale.
    pub fn close(&mut self, mark: usize) -> f64 {
        self.sample();
        scale(&self.samples[mark..])
    }

    /// Notes the samples and the range of the `scales` they gave.
    pub fn note(&self, scales: &[f64], report: &mut Report) {
        let ms: Vec<f64> = self.samples.iter().map(|s| s * 1e3).collect();
        let (q1, q3) = if ms.len() >= 2 {
            stats::quartiles(&ms)
        } else {
            (ms[0], ms[0])
        };
        report.note(format!(
            "host reference: median {:.3} ms (q1 {q1:.3}, q3 {q3:.3}, n {}), \
             nominal {:.3} ms; scales {:.3}..{:.3}",
            stats::median(&ms),
            ms.len(),
            REFERENCE_S * 1e3,
            scales.iter().copied().fold(f64::INFINITY, f64::min),
            scales.iter().copied().fold(0.0, f64::max),
        ));
    }
}

/// The factor that scales a time measured while the kernel took `samples`
/// seconds to the kernel's nominal speed.
pub fn scale(samples: &[f64]) -> f64 {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    REFERENCE_S / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_mean_sample() {
        assert_eq!(scale(&[REFERENCE_S]), 1.0);
        // A host running the kernel at half speed halves reported times.
        let half = scale(&[REFERENCE_S * 1.5, REFERENCE_S * 2.5]);
        assert!((half - 0.5).abs() < 1e-12, "scale {half}");
    }

    #[test]
    fn an_operation_is_scaled_by_the_samples_around_it() {
        let mut host = Reference::new();
        let mark = host.mark();
        host.between();
        let s = host.close(mark);
        assert!(host.samples.len() >= 2);
        assert_eq!(s, scale(&host.samples[mark..]));
        assert!(s.is_finite() && s > 0.0);
    }
}
