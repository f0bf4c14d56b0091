//! Forward-recurrence scheduling: the whole [`OooCore`] schedule of a
//! fixed window, computed one instruction at a time in program order.
//!
//! Under the paper's idealizations (perfect frontend and caches,
//! oldest-first select, no resizes) every instruction's dispatch, issue
//! and commit cycles are a closed-form function of older instructions
//! only. With `fw`, `iw`, `cw` the fetch, issue and commit widths, `W` the
//! window, and every out-of-range term (`i < 0`) reading as cycle 0:
//!
//! * dispatch `D(i) = max(D(i-1), D(i-fw) + 1, C(i-W))` — in order, at
//!   most `fw` per cycle, and only once the instruction `W` older has
//!   committed (commit precedes dispatch within a cycle);
//! * issue `I(i)` = the first cycle `≥ max(D(i) + 1, done(deps))` in
//!   which fewer than `iw` older instructions issue. Assigning slots in
//!   program order *is* oldest-first select: younger instructions never
//!   take a slot an older ready one wants;
//! * `done(i) = I(i) + latency(i)`, and commit
//!   `C(i) = max(I(i) + max(latency(i), 1), C(i-1), C(i-cw) + 1)` — a
//!   zero-latency result is ready for consumers issuing in the same
//!   cycle, but commit ran earlier in that cycle, so it retires next.
//!
//! A dependence `W` or more instructions back can be ignored: its
//! producer committed by `C(i-W) ≤ D(i)`, so it is done before the
//! consumer could issue anyway, and fetch or commit widths above `W` are
//! implied by the window constraint. Each window therefore keeps only a
//! ring of the last `W + 1` instructions' cycles plus an issue-slot
//! calendar tagged by cycle, and [`run_many`] pushes every
//! generated instruction through all windows' recurrences before
//! generating the next — one generation and O(1) work per
//! instruction-window, instead of one event-driven core per window.
//!
//! `OooCore::run` stops at the first cycle where the target is reached,
//! which is `C(insts-1)`; the instructions committing in that same cycle
//! (at most `cw - 1` more) are counted too, so [`run`] returns exactly
//! the core's [`RunStats`]. The tests below and `cap-verify` hold the
//! chain recurrence → [`OooCore`] → [`ScanCore`](crate::reference::ScanCore).
//!
//! # Preconditions
//!
//! As for [`OooCore`]: the stream's `seq` numbers are contiguous and
//! every dependence names an older instruction (`dep < seq`).

use crate::config::CoreConfig;
use crate::core::RunStats;
#[cfg(doc)]
use crate::core::OooCore;
use crate::error::OooError;
use cap_trace::inst::{Inst, InstStream};

/// Initial issue-slot calendar length; it grows whenever the live span
/// of issue cycles outgrows it.
const INITIAL_SLOTS: usize = 256;

/// Bits of a calendar slot that count issues; the rest tag the cycle.
/// A cycle never sees more than `W ≤ 256` issues (instruction `i + W`
/// dispatches after `i` commits), so issue widths are clamped to `W`.
const USED_BITS: u32 = 9;
const USED_MASK: u64 = (1 << USED_BITS) - 1;

/// The cycles of one scheduled instruction.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    dispatch: u64,
    done: u64,
    commit: u64,
}

/// Issue counts per cycle, in a ring indexed by `cycle % len`; each slot
/// packs `cycle << USED_BITS | issues`. The ring is kept longer than the
/// span of live cycles (from the earliest cycle any instruction can
/// still issue in to the latest one claimed), so two live cycles never
/// share a slot and a slot tagged with another cycle is dead. Its length
/// therefore follows the longest latency in flight, as `OooCore`'s
/// wakeup calendar does.
#[derive(Debug, Clone)]
struct IssueSlots {
    slots: Vec<u64>,
    mask: u64,
}

impl IssueSlots {
    fn new() -> Self {
        IssueSlots { slots: vec![0; INITIAL_SLOTS], mask: INITIAL_SLOTS as u64 - 1 }
    }

    /// Takes the first cycle `>= ready` with fewer than `width` issues.
    /// `floor <= ready` is the earliest cycle any current or future
    /// instruction can issue in.
    #[inline]
    fn claim(&mut self, ready: u64, floor: u64, width: u64) -> u64 {
        let mut t = ready;
        loop {
            if t - floor > self.mask {
                self.grow(t - floor, floor);
            }
            let s = &mut self.slots[(t & self.mask) as usize];
            let used = if *s >> USED_BITS == t { *s & USED_MASK } else { 0 };
            if used < width {
                *s = t << USED_BITS | (used + 1);
                return t;
            }
            t += 1;
        }
    }

    /// Re-bins the live slots into a ring longer than `span`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, span: u64, floor: u64) {
        let len = (span + 1).next_power_of_two();
        let mut next = vec![0; len as usize];
        for &s in self.slots.iter().filter(|&&s| s >> USED_BITS >= floor) {
            next[((s >> USED_BITS) & (len - 1)) as usize] = s;
        }
        self.slots = next;
        self.mask = len - 1;
    }
}

/// What the recurrences need of one instruction, derived once for all
/// windows.
#[derive(Debug, Clone, Copy)]
struct Operands {
    /// How many instructions back each producer is; `u64::MAX` for an
    /// absent operand.
    back: [u64; 2],
    latency: u64,
}

impl Operands {
    #[inline]
    fn of(inst: &Inst) -> Self {
        let back = |dep: Option<u64>| {
            dep.map_or(u64::MAX, |d| {
                debug_assert!(d < inst.seq, "a dependence must name an older instruction");
                inst.seq.wrapping_sub(d)
            })
        };
        Operands { back: [back(inst.dep1), back(inst.dep2)], latency: u64::from(inst.latency) }
    }
}

/// One window's recurrence state.
#[derive(Debug, Clone)]
struct Sched {
    window: u64,
    /// The widths, clamped to the window: a wider fetch or commit
    /// constraint is implied by the window one, and no cycle can issue
    /// more than `W` instructions.
    fetch_width: u64,
    issue_width: u64,
    commit_width: u64,
    /// `ring[i & mask]` holds instruction `i`'s cycles; unwritten slots
    /// read as zeros, the value of every out-of-range term.
    ring: Vec<Timing>,
    mask: u64,
    slots: IssueSlots,
    /// Instructions scheduled so far.
    n: u64,
}

impl Sched {
    fn new(config: &CoreConfig) -> Result<Self, OooError> {
        config.validate()?;
        let window = config.window.entries();
        let len = (window + 1).next_power_of_two();
        let clamp = |width: usize| width.min(window) as u64;
        Ok(Sched {
            window: window as u64,
            fetch_width: clamp(config.fetch_width),
            issue_width: clamp(config.issue_width),
            commit_width: clamp(config.commit_width),
            ring: vec![Timing::default(); len],
            mask: len as u64 - 1,
            slots: IssueSlots::new(),
            n: 0,
        })
    }

    #[inline]
    fn at(&self, back: u64) -> Timing {
        self.ring[(self.n.wrapping_sub(back) & self.mask) as usize]
    }

    /// Schedules the next instruction.
    #[inline]
    fn push(&mut self, op: &Operands) {
        let last = self.at(1);
        let dispatch = last
            .dispatch
            .max(self.at(self.fetch_width).dispatch + 1)
            .max(self.at(self.window).commit);
        let mut ready = dispatch + 1;
        for back in op.back {
            let done = self.at(back).done;
            ready = ready.max(if back < self.window { done } else { 0 });
        }
        let issue = self.slots.claim(ready, dispatch + 1, self.issue_width);
        let commit = (issue + op.latency.max(1))
            .max(last.commit)
            .max(self.at(self.commit_width).commit + 1);
        let done = issue + op.latency;
        self.ring[(self.n & self.mask) as usize] = Timing { dispatch, done, commit };
        self.n += 1;
    }

    /// The commit cycle of the last instruction scheduled.
    fn last_commit(&self) -> u64 {
        self.at(1).commit
    }
}

/// Schedules one stream on every configuration at once and returns, per
/// configuration, exactly what `OooCore::run(stream, insts)` on a fresh
/// core would. The stream is read once for all configurations, up to
/// `insts + commit_width - 1` instructions.
///
/// # Errors
///
/// Returns [`OooError::InvalidWidth`] if a configuration fails
/// [`CoreConfig::validate`].
pub fn run_many<S: InstStream>(
    mut stream: S,
    configs: &[CoreConfig],
    insts: u64,
) -> Result<Vec<RunStats>, OooError> {
    let mut scheds = configs.iter().map(Sched::new).collect::<Result<Vec<_>, _>>()?;
    if insts == 0 {
        return Ok(vec![RunStats::default(); scheds.len()]);
    }
    let mut next_seq = None;
    let mut next = || {
        let inst = stream.next_inst();
        if let Some(expect) = next_seq {
            assert_eq!(inst.seq, expect, "instruction stream must be contiguous");
        }
        next_seq = Some(inst.seq + 1);
        Operands::of(&inst)
    };
    for _ in 0..insts {
        let op = next();
        for s in &mut scheds {
            s.push(&op);
        }
    }
    let mut stats: Vec<RunStats> =
        scheds.iter().map(|s| RunStats { cycles: s.last_commit(), committed: insts }).collect();
    // Instructions committing in the target's cycle count too: at most
    // `commit_width - 1` of them.
    let mut open: Vec<usize> =
        (0..configs.len()).filter(|&k| configs[k].commit_width > 1).collect();
    while !open.is_empty() {
        let op = next();
        open.retain(|&k| {
            let (s, st) = (&mut scheds[k], &mut stats[k]);
            s.push(&op);
            if s.last_commit() != st.cycles {
                return false;
            }
            st.committed += 1;
            st.committed < insts + configs[k].commit_width as u64 - 1
        });
    }
    Ok(stats)
}

/// The schedule of one configuration: [`run_many`] with a single entry.
///
/// # Errors
///
/// Returns [`OooError::InvalidWidth`] if the configuration fails
/// [`CoreConfig::validate`].
pub fn run<S: InstStream>(stream: S, config: CoreConfig, insts: u64) -> Result<RunStats, OooError> {
    Ok(run_many(stream, &[config], insts)?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WindowSize;
    use crate::core::OooCore;
    use crate::reference::ScanCore;
    use cap_trace::inst::{IlpParams, SegmentIlp};

    /// A stream of hand-built instructions: `make(seq)` for every `seq`.
    struct FnStream<F> {
        make: F,
        next: u64,
        generated: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl<F: FnMut(u64) -> Inst> FnStream<F> {
        fn new(make: F) -> Self {
            FnStream { make, next: 0, generated: Default::default() }
        }
    }

    impl<F: FnMut(u64) -> Inst> InstStream for FnStream<F> {
        fn next_inst(&mut self) -> Inst {
            let inst = (self.make)(self.next);
            self.next += 1;
            self.generated.set(self.next);
            inst
        }
    }

    fn core_run<S: InstStream>(mut stream: S, config: CoreConfig, insts: u64) -> RunStats {
        OooCore::new(config).run(&mut stream, insts)
    }

    fn configs() -> Vec<CoreConfig> {
        let mut all: Vec<CoreConfig> =
            WindowSize::paper_sweep().map(|w| CoreConfig::isca98(w.entries()).unwrap()).collect();
        // Unequal widths, and widths above the window.
        all.push(CoreConfig { fetch_width: 4, issue_width: 2, commit_width: 3, ..all[1] });
        all.push(CoreConfig { fetch_width: 24, issue_width: 5, commit_width: 1, ..all[0] });
        all.push(CoreConfig { fetch_width: 2, issue_width: 40, commit_width: 20, ..all[0] });
        all
    }

    #[test]
    fn matches_core_on_generated_streams() {
        let mut serial = IlpParams::balanced();
        serial.cross_dep_prob = 1.0;
        serial.burst_chain_len = 1;
        let mut sparse = IlpParams::balanced();
        sparse.far_dep_prob = 0.5;
        for (params, seed) in [(IlpParams::balanced(), 1u64), (serial, 2), (sparse, 3)] {
            let make = || SegmentIlp::new(params, seed).unwrap();
            let fused = run_many(make(), &configs(), 20_000).unwrap();
            for (config, got) in configs().into_iter().zip(fused) {
                assert_eq!(got, core_run(make(), config, 20_000), "{config:?} seed {seed}");
            }
        }
    }

    #[test]
    fn long_latency_chain_grows_the_slot_calendar() {
        // A latency-10 000 chain step, then an 8-wide burst: the window
        // fills behind the chain, so live issue cycles span far beyond
        // the initial calendar.
        let make = || {
            FnStream::new(|seq| {
                if seq % 9 == 0 {
                    let dep1 = seq.checked_sub(9);
                    Inst { seq, dep1, dep2: None, latency: 10_000 }
                } else {
                    Inst::independent(seq)
                }
            })
        };
        for w in [16usize, 64, 128] {
            let config = CoreConfig::isca98(w).unwrap();
            let got = run(make(), config, 3_000).unwrap();
            assert_eq!(got, core_run(make(), config, 3_000), "window {w}");
            assert!(got.cycles > 3_000 / 9 * 10_000);
        }
        let mut s = Sched::new(&CoreConfig::isca98(128).unwrap()).unwrap();
        let mut stream = make();
        for _ in 0..500 {
            s.push(&Operands::of(&stream.next_inst()));
        }
        assert!(s.slots.slots.len() > INITIAL_SLOTS, "calendar never grew");
    }

    #[test]
    fn zero_latency_matches_core_and_scan() {
        // Zero-latency producers feed same-cycle consumers but retire a
        // cycle later, like the cores.
        let make = || {
            FnStream::new(|seq| Inst {
                seq,
                dep1: seq.checked_sub(1 + seq % 3),
                dep2: seq.checked_sub(40),
                latency: (seq % 4) as u32,
            })
        };
        for w in [16usize, 48, 128] {
            let config = CoreConfig::isca98(w).unwrap();
            let got = run(make(), config, 5_000).unwrap();
            assert_eq!(got, core_run(make(), config, 5_000), "window {w}");
            assert_eq!(got, ScanCore::new(config).run(&mut make(), 5_000), "window {w}");
        }
    }

    #[test]
    fn one_curve_generates_at_most_insts_plus_commit_width() {
        let stream = FnStream::new(Inst::independent);
        let generated = stream.generated.clone();
        let configs: Vec<CoreConfig> =
            WindowSize::paper_sweep().map(|w| CoreConfig::isca98(w.entries()).unwrap()).collect();
        let stats = run_many(stream, &configs, 10_000).unwrap();
        assert_eq!(stats.len(), 8);
        assert!(stats.iter().all(|s| (10_000..10_008).contains(&s.committed)));
        let generated = generated.get();
        assert!((10_000..=10_000 + 8).contains(&generated), "generated {generated}");
    }

    #[test]
    fn zero_insts_is_an_empty_run() {
        let stream = FnStream::new(|_| unreachable!("nothing to generate"));
        let got = run(stream, CoreConfig::isca98(64).unwrap(), 0).unwrap();
        assert_eq!(got, RunStats::default());
    }

    #[test]
    fn invalid_widths_are_rejected() {
        let mut c = CoreConfig::isca98(64).unwrap();
        c.commit_width = 0;
        let stream = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        assert_eq!(run(stream, c, 10).unwrap_err(), OooError::InvalidWidth { what: "commit" });
    }
}
