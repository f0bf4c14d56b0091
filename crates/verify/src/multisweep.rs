//! Differential properties for the single-pass sweep engines.
//!
//! The sweep engine has two fast paths, each replacing a
//! run-per-configuration loop with one traversal:
//!
//! * the cache sweep classifies each reference by stack distance once
//!   and derives every boundary's counters from the shared profile
//!   ([`cap_cache::multisweep`]);
//! * the queue sweep pushes one generated instruction stream through
//!   every window size's forward recurrence at once
//!   ([`cap_ooo::multisweep`], [`cap_ooo::sched`]).
//!
//! Each fast path is claimed *bit-identical* to its reference — that is
//! what lets the goldens stay byte-for-byte stable across the engine
//! swap. For the queue the references form a chain: the recurrence
//! against the event-driven [`cap_ooo::core::OooCore`] on workload
//! streams, the recurrence against the full-window
//! [`cap_ooo::reference::ScanCore`] on hand-built streams, and
//! `OooCore` against `ScanCore` cycle by cycle across resizes. These
//! properties keep the claims checked under fuzzing: random workload
//! apps × seeds × trace lengths, counters compared as integers and every
//! derived time as `f64::to_bits`.

use crate::rng::Rng;
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::sim::SweepPoint;
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::OooCore;
use cap_ooo::perf::QueueSweepPoint;
use cap_ooo::reference::ScanCore;
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_trace::inst::{Inst, InstStream};
use cap_workloads::App;

/// One fuzzed cache case: a random suite application, seed and trace
/// length, swept over every paper boundary by both engines.
///
/// # Errors
///
/// Returns a message naming the first diverging boundary and field.
pub fn cache_one_pass_vs_legacy(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::cache_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let refs = rng.range(1_000, 6_000);
    let profile = app.memory_profile();
    let params = PerfParams::isca98(profile.insts_per_ref);
    let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let legacy = cap_cache::sim::sweep(
        || profile.build(seed),
        refs,
        Boundary::paper_sweep(),
        &timing,
        params,
    )
    .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let one_pass = cap_cache::multisweep::multisweep(
        profile.build(seed),
        refs,
        Boundary::paper_sweep(),
        &timing,
        params,
    )
    .map_err(|e| format!("one-pass sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} refs {refs}", app.name());
    compare_cache_points(&ctx, &legacy, &one_pass)
}

fn compare_cache_points(
    ctx: &str,
    legacy: &[SweepPoint],
    one_pass: &[SweepPoint],
) -> Result<(), String> {
    if legacy.len() != one_pass.len() {
        return Err(format!(
            "{ctx}: point counts differ (legacy {} vs one-pass {})",
            legacy.len(),
            one_pass.len()
        ));
    }
    for (l, o) in legacy.iter().zip(one_pass) {
        let b = l.boundary;
        if o.boundary != b {
            return Err(format!("{ctx}: boundary order diverged at {b} vs {}", o.boundary));
        }
        let counters = [
            ("refs", l.stats.refs, o.stats.refs),
            ("l1_hits", l.stats.l1_hits, o.stats.l1_hits),
            ("l2_hits", l.stats.l2_hits, o.stats.l2_hits),
            ("misses", l.stats.misses, o.stats.misses),
            ("writebacks", l.stats.writebacks, o.stats.writebacks),
        ];
        for (name, lv, ov) in counters {
            if lv != ov {
                return Err(format!("{ctx} boundary {b}: {name} {lv} (legacy) != {ov} (one-pass)"));
            }
        }
        let times = [
            ("cycle", l.tpi.cycle.value(), o.tpi.cycle.value()),
            ("base_tpi", l.tpi.base_tpi.value(), o.tpi.base_tpi.value()),
            ("miss_tpi", l.tpi.miss_tpi.value(), o.tpi.miss_tpi.value()),
            ("total_tpi", l.tpi.total_tpi().value(), o.tpi.total_tpi().value()),
            ("instructions", l.tpi.instructions, o.tpi.instructions),
        ];
        for (name, lv, ov) in times {
            if lv.to_bits() != ov.to_bits() {
                return Err(format!(
                    "{ctx} boundary {b}: {name} bits differ — {lv} (legacy) vs {ov} (one-pass)"
                ));
            }
        }
    }
    Ok(())
}

/// One fuzzed queue case: a random suite application, seed and run
/// length, swept over every paper window size by both engines (the
/// legacy path runs one `OooCore` per window on a regenerated stream;
/// the fast path runs every window's recurrence over one stream).
///
/// # Errors
///
/// Returns a message naming the first diverging window and field.
pub fn queue_recurrence_vs_core(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let insts = rng.range(1_000, 4_000);
    let profile = app.ilp_profile();
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let legacy =
        cap_ooo::perf::sweep(|| profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let fused =
        cap_ooo::multisweep::multisweep(profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("recurrence sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} insts {insts}", app.name());
    compare_queue_points(&ctx, &legacy, &fused)
}

fn compare_queue_points(
    ctx: &str,
    legacy: &[QueueSweepPoint],
    fused: &[QueueSweepPoint],
) -> Result<(), String> {
    if legacy.len() != fused.len() {
        return Err(format!(
            "{ctx}: point counts differ (legacy {} vs recurrence {})",
            legacy.len(),
            fused.len()
        ));
    }
    for (l, t) in legacy.iter().zip(fused) {
        let w = l.window;
        if t.window != w {
            return Err(format!("{ctx}: window order diverged at {w} vs {}", t.window));
        }
        if l.stats.cycles != t.stats.cycles || l.stats.committed != t.stats.committed {
            return Err(format!(
                "{ctx} window {w}: stats {:?} (legacy) != {:?} (recurrence)",
                l.stats, t.stats
            ));
        }
        if l.cycle.value().to_bits() != t.cycle.value().to_bits() {
            return Err(format!("{ctx} window {w}: cycle bits differ"));
        }
        if l.tpi.value().to_bits() != t.tpi.value().to_bits() {
            return Err(format!(
                "{ctx} window {w}: tpi bits differ — {} (legacy) vs {}",
                l.tpi, t.tpi
            ));
        }
    }
    Ok(())
}

/// A hand-built instruction stream for [`recurrence_vs_scan`]: random
/// latencies in `1..=64` (mostly short), and dependences that are near,
/// window-scale (including one either side of the simulated window,
/// where the recurrence stops looking back), or far enough back that the
/// producer has committed.
#[derive(Debug, Clone)]
struct HandStream {
    rng: Rng,
    seq: u64,
    window: u64,
}

impl HandStream {
    fn dep(&mut self) -> Option<u64> {
        let back = match self.rng.below(8) {
            0..=3 => self.rng.range(1, 8),
            4 => self.rng.range(9, 160),
            5 => self.window + self.rng.range(0, 2) - 1,
            6 => self.rng.range(160, 2_000),
            _ => return None,
        };
        self.seq.checked_sub(back)
    }
}

impl InstStream for HandStream {
    fn next_inst(&mut self) -> Inst {
        let dep1 = self.dep();
        let dep2 = if self.rng.chance(0.3) { self.dep() } else { None };
        let latency =
            if self.rng.chance(0.8) { self.rng.range(1, 4) } else { self.rng.range(1, 64) };
        let inst = Inst { seq: self.seq, dep1, dep2, latency: latency as u32 };
        self.seq += 1;
        inst
    }
}

/// One fuzzed recurrence case: a random paper window size and run
/// length over a hand-built stream, scheduled by the one-window forward
/// recurrence and run on the full-scan reference core.
///
/// # Errors
///
/// Returns a message naming the case and both results on divergence.
pub fn recurrence_vs_scan(rng: &mut Rng) -> Result<(), String> {
    let sizes: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    let window = *rng.pick(&sizes);
    let insts = rng.range(200, 2_000);
    let stream =
        HandStream { rng: Rng::new(rng.next_u64()), seq: 0, window: window.entries() as u64 };
    let config = CoreConfig::isca98(window.entries())
        .map_err(|e| format!("config construction failed: {e}"))?;
    let fused = cap_ooo::sched::run(stream.clone(), config, insts)
        .map_err(|e| format!("recurrence rejected config: {e}"))?;
    let mut scan =
        ScanCore::try_new(config).map_err(|e| format!("reference core rejected config: {e}"))?;
    let reference = scan.run(&mut stream.clone(), insts);
    if fused != reference {
        return Err(format!(
            "window {window} insts {insts}: {fused:?} (recurrence) != {reference:?} (scan)"
        ));
    }
    Ok(())
}

/// One fuzzed core case: the incremental-wakeup production core and the
/// full-scan reference stepped in lockstep over the same generated
/// stream, including a mid-run window resize, comparing every observable
/// each cycle.
///
/// # Errors
///
/// Returns a message naming the first diverging cycle and observable.
pub fn core_vs_scan_reference(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let sizes: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    let physical = *sizes.last().expect("paper sweep is non-empty");
    let initial = *rng.pick(&sizes);
    let steps = rng.range(400, 1_600);
    let resize_at = rng.below(steps);
    let resize_to = *rng.pick(&sizes);

    let config = CoreConfig::isca98(physical.entries())
        .map_err(|e| format!("config construction failed: {e}"))?;
    let mut fast =
        OooCore::try_new(config).map_err(|e| format!("production core rejected config: {e}"))?;
    let mut scan =
        ScanCore::try_new(config).map_err(|e| format!("reference core rejected config: {e}"))?;
    fast.request_resize(initial).map_err(|e| format!("production initial resize failed: {e}"))?;
    scan.request_resize(initial).map_err(|e| format!("reference initial resize failed: {e}"))?;

    let mut fast_stream = app.ilp_profile().build(seed);
    let mut scan_stream = app.ilp_profile().build(seed);
    let ctx = format!(
        "app {} seed {seed} window {initial}->{resize_to}@{resize_at}",
        app.name()
    );
    for t in 0..steps {
        if t == resize_at {
            let f = fast.request_resize(resize_to);
            let s = scan.request_resize(resize_to);
            if f.is_ok() != s.is_ok() {
                return Err(format!("{ctx} cycle {t}: resize outcomes differ ({f:?} vs {s:?})"));
            }
        }
        let cf = fast.step(&mut fast_stream);
        let cs = scan.step(&mut scan_stream);
        let observables = [
            ("retired", cf as u64, cs as u64),
            ("cycles", fast.cycles(), scan.cycles()),
            ("committed", fast.committed(), scan.committed()),
            ("occupancy", fast.occupancy() as u64, scan.occupancy() as u64),
            ("active_window", fast.active_window() as u64, scan.active_window() as u64),
            ("resize_pending", u64::from(fast.resize_pending()), u64::from(scan.resize_pending())),
        ];
        for (name, fv, sv) in observables {
            if fv != sv {
                return Err(format!(
                    "{ctx} cycle {t}: {name} diverged — {fv} (production) vs {sv} (scan)"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_engines_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "cache-sweep-unit", 0);
        for _ in 0..8 {
            cache_one_pass_vs_legacy(&mut rng).unwrap();
        }
    }

    #[test]
    fn queue_engines_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "queue-sweep-unit", 0);
        for _ in 0..8 {
            queue_recurrence_vs_core(&mut rng).unwrap();
        }
    }

    #[test]
    fn recurrence_and_scan_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "recurrence-scan-unit", 0);
        for _ in 0..8 {
            recurrence_vs_scan(&mut rng).unwrap();
        }
    }

    #[test]
    fn cores_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "scan-diff-unit", 0);
        for _ in 0..8 {
            core_vs_scan_reference(&mut rng).unwrap();
        }
    }
}
