//! A fixed, program-independent calibration loop: how fast the host
//! runs right now.
//!
//! Host speed on a shared VM drifts by tens of percent over minutes, in
//! wall and CPU time alike. The untraced run times this loop right
//! before every batch, on as many threads as the batch keeps busy, and
//! scales the batch's wall time by `REFERENCE_S / loop time`; one-thread
//! runs before and after the set-ups scale the set-up time the same
//! way. Program changes do not touch the loop, so they still move the
//! scaled figures in full, while host drift moves both and cancels.

use std::time::Instant;

/// The loop's wall time on a quiet 2-vCPU Intel Xeon VM; the scale in
/// which reference seconds are stated.
pub const REFERENCE_S: f64 = 0.15;

/// Dependent reads and writes per thread and run.
const STEPS: u32 = 1_000_000;

/// One 16 MiB table per busy worker thread, reused across runs.
pub struct Calibration {
    tables: Vec<Vec<u32>>,
}

impl Calibration {
    /// Tables for `threads` concurrent workers.
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            tables: (0..threads.max(1))
                .map(|_| (0..1u32 << 22).collect())
                .collect(),
        }
    }

    /// Wall seconds of one run: every table walked concurrently, each
    /// step a dependent random read and write (memory latency plus
    /// integer arithmetic, like the simulator's event handling).
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for table in &mut self.tables {
                scope.spawn(move || {
                    let mask = table.len() - 1;
                    let (mut at, mut acc) = (0usize, 1u32);
                    for step in 0..STEPS {
                        acc = acc.wrapping_mul(0x9e37_79b1).wrapping_add(table[at] ^ step);
                        table[at] = acc;
                        at = acc as usize & mask;
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        t0.elapsed().as_secs_f64()
    }
}
