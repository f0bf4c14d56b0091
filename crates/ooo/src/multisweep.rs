//! Single-pass window sweeps: every window size from one generated
//! stream.
//!
//! The legacy sweep ([`crate::perf::sweep`]) re-synthesizes the
//! instruction stream and runs a fresh event-driven [`OooCore`] per
//! window size. Here each generated instruction is pushed through every
//! window's forward recurrence ([`crate::sched`]) before the next one is
//! generated, so the stream is produced once (up to
//! `insts + commit_width - 1` instructions) and nothing is recorded.
//! Every [`QueueSweepPoint`] is bit-identical to the legacy path's (the
//! tests and `cap-verify` hold this as an invariant).
//!
//! [`OooCore`]: crate::core::OooCore

use crate::config::{CoreConfig, WindowSize};
use crate::error::OooError;
use crate::perf::{tpi, QueueSweepPoint};
use crate::sched;
use cap_timing::queue::QueueTimingModel;
use cap_trace::inst::InstStream;

/// Simulates every window size over one generated instruction stream
/// (Figure 10 methodology, single-generation).
///
/// Results are bit-identical to [`crate::perf::sweep`] called with a
/// fresh clone of `gen` per window.
///
/// # Errors
///
/// Propagates timing-model errors, exactly as the legacy sweep does.
pub fn multisweep<S: InstStream>(
    gen: S,
    insts: u64,
    windows: impl IntoIterator<Item = WindowSize>,
    timing: &QueueTimingModel,
) -> Result<Vec<QueueSweepPoint>, OooError> {
    let windows: Vec<WindowSize> = windows.into_iter().collect();
    let configs = windows
        .iter()
        .map(|w| CoreConfig::isca98(w.entries()))
        .collect::<Result<Vec<_>, _>>()?;
    let stats = sched::run_many(gen, &configs, insts)?;
    windows
        .into_iter()
        .zip(stats)
        .map(|(window, stats)| {
            let (cycle, tpi) = tpi(window, stats, timing)?;
            Ok(QueueSweepPoint { window, stats, cycle, tpi })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{sweep, sweep_point};
    use cap_timing::Technology;
    use cap_trace::inst::{IlpParams, SegmentIlp};

    fn timing() -> QueueTimingModel {
        QueueTimingModel::new(Technology::isca98_evaluation())
    }

    #[test]
    fn matches_legacy_sweep_bit_for_bit() {
        for seed in [2u64, 19] {
            let params = IlpParams::balanced();
            let legacy = sweep(
                || SegmentIlp::new(params, seed).unwrap(),
                30_000,
                WindowSize::paper_sweep(),
                &timing(),
            )
            .unwrap();
            let single = multisweep(
                SegmentIlp::new(params, seed).unwrap(),
                30_000,
                WindowSize::paper_sweep(),
                &timing(),
            )
            .unwrap();
            assert_eq!(legacy.len(), single.len());
            for (a, b) in legacy.iter().zip(&single) {
                assert_eq!(a.window, b.window);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.cycle.value().to_bits(), b.cycle.value().to_bits());
                assert_eq!(a.tpi.value().to_bits(), b.tpi.value().to_bits());
            }
        }
    }

    #[test]
    fn single_window_multisweep_matches_sweep_point() {
        let params = IlpParams::balanced();
        let w = WindowSize::new(96).unwrap();
        let a = multisweep(SegmentIlp::new(params, 8).unwrap(), 5_000, [w], &timing()).unwrap();
        let b =
            sweep_point(SegmentIlp::new(params, 8).unwrap(), 5_000, w, &timing()).unwrap();
        assert_eq!(a, vec![b]);
    }
}
