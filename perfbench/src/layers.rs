//! The traced form of each campaign leg: the same public layer calls the
//! experiment drivers make, issued one by one from here so that a span
//! can sit around each of them.
//!
//! Every function below reproduces one leg of an untraced pass exactly —
//! the traced pass renders the same report bytes and the benchmark
//! checks that it does. The simulators pull instructions and references
//! from a [`Chunked`] stream that refills a small buffer from the
//! workload generator inside its own span, so generator time is a child
//! of the simulator span and drops out of the simulator's self time.

use crate::trace::Tracer;
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::AdaptiveCacheHierarchy;
use cap_core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap_core::experiments::{CacheCurve, CachePoint, PolicyRow, QueueCurve, QueuePoint};
use cap_core::extended::ManagedCombined;
use cap_core::manager::{
    run_managed, IntervalSim, ResilienceStats, SwitchOutcome, SwitchRetryPolicy,
};
use cap_core::structure::QueueStructure;
use cap_core::{
    AdaptiveStructure, CapError, ConfidencePolicy, ConfigPolicy, IntervalManager, ManagerDecision,
};
use cap_core::{PolicyConfig, PolicyKind};
use cap_obs::{DecisionCounts, Recorder};
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::OooCore;
use cap_ooo::interval::{record_interval_observed, IntervalSample, PAPER_INTERVAL_INSTS};
use cap_timing::cacti::{CacheTimingModel, L1_LATENCY_CYCLES, MISS_LATENCY_NS};
use cap_timing::{Ns, QueueTimingModel, Technology};
use cap_trace::{AddressStream, Inst, InstStream, MemRef};
use cap_workloads::App;
use std::cell::Cell;
use std::sync::Arc;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Items a [`Chunked`] stream generates per refill.
const CHUNK: usize = 4096;

/// Work counts of one traced pass. Every field is a pure function of the
/// workload and seed, so it must repeat exactly across passes and runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub insts_generated: u64,
    pub refs_generated: u64,
    pub onepass_refs: u64,
    pub sweep_inst_windows: u64,
    pub core_insts: u64,
    pub cache_accesses: u64,
    pub decisions: u64,
    pub switches: u64,
    pub resizes: u64,
}

/// A stream that hands a simulator items from a buffer, refilling it
/// `CHUNK` at a time from the generator inside a `span` span.
struct Chunked<'a, G, T> {
    gen: G,
    pull: fn(&mut G) -> T,
    buf: Vec<T>,
    pos: usize,
    tr: &'a Tracer,
    span: &'static str,
    generated: &'a Cell<u64>,
}

impl<'a, G, T: Copy> Chunked<'a, G, T> {
    fn new(
        gen: G,
        pull: fn(&mut G) -> T,
        tr: &'a Tracer,
        span: &'static str,
        generated: &'a Cell<u64>,
    ) -> Self {
        Chunked {
            gen,
            pull,
            buf: Vec::with_capacity(CHUNK),
            pos: 0,
            tr,
            span,
            generated,
        }
    }

    fn next(&mut self) -> T {
        if self.pos == self.buf.len() {
            let (gen, pull, buf) = (&mut self.gen, self.pull, &mut self.buf);
            self.tr.span(self.span, || {
                buf.clear();
                buf.extend((0..CHUNK).map(|_| pull(gen)));
            });
            self.generated.set(self.generated.get() + CHUNK as u64);
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

impl<G: InstStream> InstStream for Chunked<'_, G, Inst> {
    fn next_inst(&mut self) -> Inst {
        self.next()
    }
}

impl<G: AddressStream> AddressStream for Chunked<'_, G, MemRef> {
    fn next_ref(&mut self) -> MemRef {
        self.next()
    }
}

/// `app`'s instruction stream, generated in spanned chunks.
fn app_insts<'a>(
    tr: &'a Tracer,
    app: App,
    seed: u64,
    generated: &'a Cell<u64>,
) -> Chunked<'a, impl InstStream, Inst> {
    Chunked::new(
        app.ilp_profile().build(seed ^ app.seed_salt()),
        InstStream::next_inst,
        tr,
        "trace.inst_gen",
        generated,
    )
}

/// `app`'s reference stream, generated in spanned chunks.
fn app_refs<'a>(
    tr: &'a Tracer,
    app: App,
    seed: u64,
    generated: &'a Cell<u64>,
) -> Chunked<'a, impl AddressStream, MemRef> {
    let gen = app.memory_profile().build(seed ^ app.seed_salt());
    Chunked::new(gen, AddressStream::next_ref, tr, "trace.ref_gen", generated)
}

/// One Figure 10 curve: generate the stream once, then sweep every
/// window size over it (`cap_ooo::multisweep`).
pub fn queue_leg(
    tr: &Tracer,
    timing: &QueueTimingModel,
    app: App,
    seed: u64,
    insts: u64,
    counts: &mut Counts,
) -> Res<QueueCurve> {
    let generated = Cell::new(0);
    let windows: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    counts.sweep_inst_windows += insts * windows.len() as u64;
    let points = tr.span("ooo.sweep", || {
        cap_ooo::multisweep::multisweep(
            app_insts(tr, app, seed, &generated),
            insts,
            windows,
            timing,
        )
    })?;
    counts.insts_generated += generated.get();
    Ok(QueueCurve {
        app: app.name().to_string(),
        integer_panel: app.in_integer_panel(),
        points: points
            .into_iter()
            .map(|p| QueuePoint {
                entries: p.window.entries(),
                cycle_ns: p.cycle.value(),
                ipc: p.stats.ipc(),
                tpi_ns: p.tpi.value(),
            })
            .collect(),
    })
}

/// One Figure 7 curve: generate the reference stream once, then classify
/// it for every boundary in one stack-distance pass.
pub fn cache_leg(
    tr: &Tracer,
    timing: &CacheTimingModel,
    app: App,
    seed: u64,
    refs: u64,
    counts: &mut Counts,
) -> Res<CacheCurve> {
    let profile = app.memory_profile();
    let generated = Cell::new(0);
    counts.onepass_refs += refs;
    let points = tr.span("cache.onepass", || {
        cap_cache::multisweep::sweep_one_pass(
            || app_refs(tr, app, seed, &generated),
            refs,
            Boundary::paper_sweep(),
            timing,
            PerfParams::isca98(profile.insts_per_ref),
        )
    })?;
    counts.refs_generated += generated.get();
    Ok(CacheCurve {
        app: app.name().to_string(),
        integer_panel: app.in_integer_panel(),
        points: points
            .into_iter()
            .map(|p| CachePoint {
                l1_kb: p.boundary.l1_kb(),
                l1_assoc: p.boundary.l1_assoc(),
                cycle_ns: p.tpi.cycle.value(),
                tpi_ns: p.tpi.total_tpi().value(),
                tpi_miss_ns: p.tpi.miss_tpi.value(),
                l1_miss_ratio: p.stats.l1_miss_ratio(),
                global_miss_ratio: p.stats.global_miss_ratio(),
            })
            .collect(),
    })
}

/// A policy whose `observe` calls are spanned and counted.
struct TracedPolicy<'a> {
    inner: Box<dyn ConfigPolicy>,
    tr: &'a Tracer,
    decisions: u64,
    switches: u64,
}

impl ConfigPolicy for TracedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_configs(&self) -> usize {
        self.inner.num_configs()
    }
    fn intervals_seen(&self) -> u64 {
        self.inner.intervals_seen()
    }
    fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        let inner = &mut self.inner;
        let d = self
            .tr
            .span("manager.observe", || inner.observe(config, tpi_ns));
        self.decisions += 1;
        if matches!(d, ManagerDecision::SwitchTo(next) if next != config) {
            self.switches += 1;
        }
        d
    }
    fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        self.inner.record_switch_outcome(target, outcome);
    }
    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError> {
        self.inner.mask_unavailable(configs)
    }
    fn decision_counts(&self) -> DecisionCounts {
        self.inner.decision_counts()
    }
    fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }
    fn quarantined_count(&self) -> usize {
        self.inner.quarantined_count()
    }
    fn is_quarantined(&self, config: usize) -> bool {
        self.inner.is_quarantined(config)
    }
    fn in_safe_mode(&self) -> bool {
        self.inner.in_safe_mode()
    }
    fn recorder(&self) -> Arc<dyn Recorder> {
        self.inner.recorder()
    }
    fn label(&self) -> Option<&str> {
        self.inner.label()
    }
}

/// The queue structure with its reconfigurations counted.
struct CountedQueue<'a> {
    inner: &'a mut QueueStructure,
    resizes: u64,
}

impl AdaptiveStructure for CountedQueue<'_> {
    fn num_configs(&self) -> usize {
        self.inner.num_configs()
    }
    fn current(&self) -> usize {
        self.inner.current()
    }
    fn reconfigure(&mut self, index: usize) -> Result<(), CapError> {
        self.resizes += 1;
        self.inner.reconfigure(index)
    }
    fn cycle_time(&self, index: usize) -> Result<Ns, CapError> {
        self.inner.cycle_time(index)
    }
    fn describe(&self, index: usize) -> String {
        self.inner.describe(index)
    }
}

/// One interval of the out-of-order core per `simulate`, spanned.
struct TracedQueueSim<'a, S> {
    structure: CountedQueue<'a>,
    stream: S,
    tr: &'a Tracer,
    core_insts: u64,
}

impl<S: InstStream> IntervalSim for TracedQueueSim<'_, S> {
    fn structure(&mut self) -> &mut dyn AdaptiveStructure {
        &mut self.structure
    }
    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError> {
        let core = self.structure.inner.core_mut();
        let stream = &mut self.stream;
        let sample = self.tr.span("ooo.core", || {
            record_interval_observed(core, stream, PAPER_INTERVAL_INSTS, index, recorder, label)
        })?;
        self.core_insts += sample.map_or(0, |s| s.insts);
        Ok(sample)
    }
}

/// One managed run of the policy comparison: `app` under `kind` for
/// `intervals` intervals on the generic managed-run kernel.
pub fn policy_leg(
    tr: &Tracer,
    app: App,
    kind: PolicyKind,
    seed: u64,
    intervals: u64,
    counts: &mut Counts,
) -> Res<PolicyRow> {
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let mut structure = QueueStructure::isca98(timing, 0)?;
    let mut clock = DynamicClock::new(structure.period_table()?, DEFAULT_SWITCH_PENALTY_CYCLES)?;
    let inner = PolicyConfig::new(kind).build(
        structure.num_configs(),
        cap_obs::noop(),
        Some(app.name().to_string()),
    )?;
    let mut policy = TracedPolicy {
        inner,
        tr,
        decisions: 0,
        switches: 0,
    };
    let generated = Cell::new(0);
    let mut sim = TracedQueueSim {
        structure: CountedQueue {
            inner: &mut structure,
            resizes: 0,
        },
        stream: app_insts(tr, app, seed, &generated),
        tr,
        core_insts: 0,
    };
    let run = run_managed(
        &mut sim,
        &mut policy,
        &mut clock,
        intervals,
        None,
        SwitchRetryPolicy::default(),
    )?
    .run;
    counts.core_insts += sim.core_insts;
    counts.resizes += sim.structure.resizes;
    counts.insts_generated += generated.get();
    counts.decisions += policy.decisions;
    counts.switches += policy.switches;
    Ok(PolicyRow {
        policy: kind.name().to_string(),
        tpi_ns: run.average_tpi().value(),
        switches: run.switches,
    })
}

/// One run of the online joint-management study: two confidence
/// managers, one per structure, observing the same joint TPI. The model
/// arithmetic follows `cap_core::extended::run_managed_combined` line for
/// line; the report check proves it.
pub fn joint_leg(
    tr: &Tracer,
    app: App,
    seed: u64,
    intervals: u64,
    counts: &mut Counts,
) -> Res<ManagedCombined> {
    let policy = ConfidencePolicy::default_policy();
    let tech = Technology::isca98_evaluation();
    let cache_timing = CacheTimingModel::isca98(tech);
    let queue_timing = QueueTimingModel::new(tech);
    let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
    let windows: Vec<usize> = WindowSize::paper_sweep().map(WindowSize::entries).collect();

    let mem = app.memory_profile();
    let (insts_generated, refs_generated) = (Cell::new(0), Cell::new(0));
    let mut inst_stream = app_insts(tr, app, seed, &insts_generated);
    let mut mem_stream = app_refs(tr, app, seed, &refs_generated);

    let mut cache =
        AdaptiveCacheHierarchy::try_with_geometry(*cache_timing.geometry(), boundaries[0])?;
    let largest = *windows.last().expect("paper sweep is non-empty");
    let mut core = OooCore::try_new(CoreConfig::isca98(largest)?)?;
    core.request_resize(WindowSize::new(windows[0])?)?;
    let mut cache_mgr = IntervalManager::new(boundaries.len(), 31, policy)?;
    let mut queue_mgr = IntervalManager::new(windows.len(), 37, policy)?;
    let (mut cache_cfg, mut queue_cfg, mut switches) = (0usize, 0usize, 0u64);
    let (mut total_time, mut total_insts) = (0.0f64, 0u64);
    let refs_per_interval = (PAPER_INTERVAL_INSTS as f64 / mem.insts_per_ref).ceil() as u64;

    for _ in 0..intervals {
        let run = tr.span("ooo.core", || {
            core.run(&mut inst_stream, PAPER_INTERVAL_INSTS)
        });
        counts.core_insts += run.committed;
        let before = cache.stats();
        tr.span("cache.access", || {
            for _ in 0..refs_per_interval {
                cache.access(mem_stream.next_ref());
            }
        });
        counts.cache_accesses += refs_per_interval;
        let after = cache.stats();
        let k = boundaries[cache_cfg].increments();
        let cycle = cache_timing
            .cycle_time(k)?
            .max(queue_timing.cycle_time(windows[queue_cfg])?);
        let l2_extra = ((cache_timing.l2_access(k)? / cycle).ceil() as u64)
            .saturating_sub(u64::from(L1_LATENCY_CYCLES));
        let mem_extra = l2_extra + (Ns(MISS_LATENCY_NS) / cycle).ceil() as u64;
        let stall_cpi = ((after.l2_hits - before.l2_hits) as f64 * l2_extra as f64
            + (after.misses - before.misses) as f64 * mem_extra as f64)
            / run.committed as f64;
        let tpi = cycle.value() * (run.cycles as f64 / run.committed as f64 + stall_cpi);
        total_time += tpi * run.committed as f64;
        total_insts += run.committed;

        counts.decisions += 2;
        if let ManagerDecision::SwitchTo(next) =
            tr.span("manager.observe", || cache_mgr.observe(cache_cfg, tpi))
        {
            if next != cache_cfg {
                cache.set_boundary(boundaries[next]);
                cache_cfg = next;
                switches += 1;
                total_time += DEFAULT_SWITCH_PENALTY_CYCLES as f64 * cycle.value();
            }
        }
        if let ManagerDecision::SwitchTo(next) =
            tr.span("manager.observe", || queue_mgr.observe(queue_cfg, tpi))
        {
            if next != queue_cfg {
                core.request_resize(WindowSize::new(windows[next])?)?;
                counts.resizes += 1;
                queue_cfg = next;
                switches += 1;
                total_time += DEFAULT_SWITCH_PENALTY_CYCLES as f64 * cycle.value();
            }
        }
    }
    counts.switches += switches;
    counts.insts_generated += insts_generated.get();
    counts.refs_generated += refs_generated.get();
    Ok(ManagedCombined {
        app: app.name().to_string(),
        intervals,
        avg_tpi: total_time / total_insts as f64,
        switches,
        final_l1_kb: boundaries[cache_cfg].l1_kb(),
        final_entries: windows[queue_cfg],
    })
}
