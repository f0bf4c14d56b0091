//! The four workloads: what a set-up does, what one timed pass runs and
//! which report bytes it must reproduce.
//!
//! Untraced passes run the same plans as `capsim sweep`, `capsim
//! compare-policies` and `capsim plan figures` (`plan::sweep_plan`,
//! `plan::compare_policies_plan`, `plan::figures_plan`, each through
//! `Executor::run`), plus `extended::run_managed_combined_with` for the
//! joint study, all under `ExecPolicy::serial()`. Traced passes compute
//! the same legs layer by layer through `crate::layers`, with a span
//! around each call, then render through `Executor::run` from the cache
//! those legs filled, and must produce identical bytes.

use crate::layers::{self, Counts, Res};
use crate::trace::Tracer;
use cap_core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment,
    DEFAULT_SEED, SWEEP_RESULTS_VERSION,
};
use cap_core::extended::{run_managed_combined_with, ManagedCombined};
use cap_core::plan::{self, Executor, ExperimentSpec, LegClass};
use cap_core::{ConfidencePolicy, PolicyKind};
use cap_par::{CacheKey, Journal, JournalHeader, ResultCache};
use cap_workloads::App;
use serde::Serialize;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where runs keep scratch files, spans, locks and the quality cache,
/// relative to the repository root, in one directory per build.
pub const STATE_DIR: &str = ".bench_state";
const SCALE: ExperimentScale = ExperimentScale::Default;
/// Intervals per managed run in `results/policies.txt`.
const POLICY_INTERVALS: u64 = 600;
const POLICY_APPS: [App; 4] = [App::Turb3d, App::Vortex, App::Compress, App::Appcg];
/// Intervals per run of the online joint study in `results/extended.txt`.
const JOINT_INTERVALS: u64 = 400;
const JOINT_APPS: [App; 3] = [App::M88ksim, App::Stereo, App::Appcg];
const JOINT_TITLE: &str =
    "Online joint management (two coordinated interval managers, 400 intervals):";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QueueCold,
    CacheCold,
    IntervalManaged,
    WarmReplay,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::QueueCold,
        Kind::CacheCold,
        Kind::IntervalManaged,
        Kind::WarmReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::QueueCold => "queue-cold",
            Kind::CacheCold => "cache-cold",
            Kind::IntervalManaged => "interval-managed",
            Kind::WarmReplay => "warm-replay",
        }
    }
}

/// How a pass is run.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Public entry points, no recorder: what end-to-end metrics time.
    Plain,
    /// Public entry points with a `cap_obs::JsonlRecorder` attached.
    Recorded,
    /// Layer by layer, with spans.
    Traced(&'a Tracer),
}

/// One finished pass.
pub struct PassOut {
    pub secs: f64,
    pub report: String,
    pub counts: Counts,
}

/// What a set-up leaves for the passes.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    root: PathBuf,
    /// This build's state directory, which holds the quality cache.
    state: PathBuf,
    scratch: PathBuf,
    /// Expected report bytes: the committed golden at the default seed,
    /// the cold fill's output on `warm-replay`, else set by the first pass.
    pub expected: Option<String>,
    queue: QueueExperiment,
    cache: CacheExperiment,
    interval: IntervalExperiment,
    /// The campaign plans a pass runs.
    specs: Vec<ExperimentSpec>,
    /// `warm-replay` only: the result cache set-up filled.
    warm: Option<ResultCache>,
    passes: u32,
    /// The result cache of the latest cold pass.
    last_cache: Option<ResultCache>,
}

fn read(root: &Path, rel: &str) -> Res<String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}").into())
}

fn remove_dir(path: &Path) -> Res<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    Ok(())
}

/// A figure binary's stdout less its three-line banner: the body the
/// sweep reports share with the committed figure goldens.
fn golden_body(root: &Path, rel: &str) -> Res<String> {
    let text = read(root, rel)?;
    let mut at = 0;
    for _ in 0..3 {
        at += text[at..]
            .find('\n')
            .ok_or_else(|| format!("{rel} has no banner"))?
            + 1;
    }
    Ok(text[at..].to_string())
}

/// `results/policies.txt` in the layout `plan::compare_policies_plan`
/// renders: one titled table per app, without the app column.
fn golden_policies(root: &Path) -> Res<String> {
    let text = read(root, "results/policies.txt")?;
    let mut out = String::new();
    for app in POLICY_APPS {
        let _ = writeln!(
            out,
            "== policy comparison: {} ({POLICY_INTERVALS} intervals)",
            app.name()
        );
        let _ = writeln!(out, "{:>16} {:>12} {:>10}", "policy", "TPI ns", "switches");
        for line in text
            .lines()
            .filter(|l| l.len() > 9 && l[..9].trim() == app.name())
        {
            let _ = writeln!(out, "{}", &line[9..]);
        }
    }
    Ok(out)
}

fn queue_title(seed: u64) -> String {
    format!("== queue sweep: TPI vs window size, seed {seed:#x}\n")
}

fn cache_title(seed: u64) -> String {
    format!("== cache sweep: TPI vs L1 boundary, seed {seed:#x}\n")
}

/// The joint section of `results/extended.txt`.
fn render_joint(out: &mut String, joint: &[ManagedCombined]) {
    let _ = writeln!(out, "{JOINT_TITLE}");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>16}",
        "app", "avg TPI", "switches", "settled config"
    );
    for r in joint {
        let _ = writeln!(
            out,
            "{:>10} {:>12.3} {:>10} {:>9}KB,{:>4}",
            r.app, r.avg_tpi, r.switches, r.final_l1_kb, r.final_entries
        );
    }
}

/// The content address `cap-core` files a joint-study run under.
fn joint_key(app: App, seed: u64) -> CacheKey {
    let p = ConfidencePolicy::default_policy();
    CacheKey {
        kind: "extended-study".to_string(),
        app: app.name().to_string(),
        scale: format!("{JOINT_INTERVALS}iv"),
        seed,
        config_range: format!("joint managed t{} h{}", p.threshold, p.hysteresis),
        version: SWEEP_RESULTS_VERSION,
        policy: None,
    }
}

/// Parses a leg's canonical key back into its [`CacheKey`], the inverse
/// of `CacheKey::canonical`.
pub fn parse_key(canonical: &str) -> Res<CacheKey> {
    let bad = || format!("unexpected leg key `{canonical}`");
    let parts: Vec<&str> = canonical.split('|').collect();
    if parts.len() != 6 && parts.len() != 7 {
        return Err(bad().into());
    }
    let seed = parts[3].strip_prefix("seed=0x").ok_or_else(bad)?;
    let version = parts[5].strip_prefix('v').ok_or_else(bad)?;
    let policy = match parts.get(6) {
        Some(p) => Some(p.strip_prefix("policy=").ok_or_else(bad)?.to_string()),
        None => None,
    };
    let key = CacheKey {
        kind: parts[0].to_string(),
        app: parts[1].to_string(),
        scale: parts[2].to_string(),
        seed: u64::from_str_radix(seed, 16)?,
        config_range: parts[4].to_string(),
        version: version.parse()?,
        policy,
    };
    if key.canonical() != canonical {
        return Err(bad().into());
    }
    Ok(key)
}

/// The campaign plans whose legs a pass of `kind` computes or replays.
fn plans(kind: Kind, seed: u64) -> Res<Vec<ExperimentSpec>> {
    Ok(match kind {
        Kind::QueueCold => vec![plan::sweep_plan("queue", SCALE, seed)?],
        Kind::CacheCold => vec![plan::sweep_plan("cache", SCALE, seed)?],
        Kind::IntervalManaged => POLICY_APPS
            .iter()
            .map(|&app| plan::compare_policies_plan(app, POLICY_INTERVALS, seed))
            .collect(),
        Kind::WarmReplay => vec![plan::figures_plan(SCALE, seed)?],
    })
}

/// The expected report bytes at the default seed: the committed goldens
/// of the workload's campaigns. `None` at other seeds, and on
/// `warm-replay`, whose expected bytes are its cold fill's output.
pub fn golden_report(kind: Kind, seed: u64, root: &Path) -> Res<Option<String>> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    Ok(match kind {
        Kind::QueueCold => Some(queue_title(seed) + &golden_body(root, "results/fig10.txt")?),
        Kind::CacheCold => Some(cache_title(seed) + &golden_body(root, "results/fig07.txt")?),
        Kind::IntervalManaged => {
            let extended = read(root, "results/extended.txt")?;
            let at = extended
                .find(JOINT_TITLE)
                .ok_or("results/extended.txt has no joint section")?;
            Some(golden_policies(root)? + &extended[at..])
        }
        Kind::WarmReplay => None,
    })
}

/// Empties the directory a `warm-replay` set-up fills, so that every
/// set-up starts from an empty result cache.
pub fn clear_setup_dir(scratch: &Path) -> Res<()> {
    remove_dir(&scratch.join("setup"))
}

impl Workload {
    /// One set-up: what a campaign does before its first leg. It builds
    /// the experiment drivers (and with them the timing models) and the
    /// workload's plans. On `warm-replay` it also fills a result cache
    /// with a cold run of the figures plan, whose report becomes the
    /// expected bytes. [`clear_setup_dir`] must run before each set-up.
    pub fn setup(
        kind: Kind,
        seed: u64,
        root: &Path,
        state: &Path,
        scratch: &Path,
        tr: Option<&Tracer>,
    ) -> Res<Self> {
        let build = || {
            (
                QueueExperiment::new(SCALE).with_seed(seed),
                CacheExperiment::new(SCALE).map(|c| c.with_seed(seed)),
                IntervalExperiment::new().with_seed(seed),
            )
        };
        let (queue, cache, interval) = match tr {
            Some(tr) => tr.span("timing.models", build),
            None => build(),
        };
        let mut w = Workload {
            kind,
            seed,
            root: root.to_path_buf(),
            state: state.to_path_buf(),
            scratch: scratch.to_path_buf(),
            expected: None,
            queue,
            cache: cache?,
            interval,
            specs: plans(kind, seed)?,
            warm: None,
            passes: 0,
            last_cache: None,
        };
        if kind == Kind::WarmReplay {
            let store = ResultCache::at(scratch.join("setup").join("cache"));
            let fill = Executor::run(&w.specs[0], &ExecPolicy::serial().cached(store.clone()))?;
            w.expected = Some(fill.rendered().to_string());
            w.warm = Some(store);
        }
        Ok(w)
    }

    /// Checks the plans a set-up built: against an empty result cache
    /// every leg must miss, and at the default seed the cold figures
    /// plan graph must be `results/plan_figures.txt`.
    pub fn check_plans(&self) -> Res<()> {
        let empty = ExecPolicy::serial().cached(ResultCache::at(self.scratch.join("empty")));
        for spec in &self.specs {
            let res = Executor::resolve(spec, &empty);
            if res.legs.iter().any(|l| l.class != LegClass::Miss) {
                return Err(format!("plan {} is not cold in an empty cache", spec.name()).into());
            }
            if self.kind == Kind::WarmReplay
                && self.seed == DEFAULT_SEED
                && res.render() != read(&self.root, "results/plan_figures.txt")?
            {
                return Err("cold figures plan graph differs from results/plan_figures.txt".into());
            }
        }
        Ok(())
    }

    /// The directory of the next cold pass, not yet created. The
    /// previous pass's files are removed here, outside the timed pass.
    fn next_pass_dir(&mut self) -> Res<PathBuf> {
        self.passes += 1;
        remove_dir(&self.scratch.join(format!("pass-{}", self.passes - 1)))?;
        let dir = self.scratch.join(format!("pass-{}", self.passes));
        remove_dir(&dir)?;
        Ok(dir)
    }

    /// An empty result cache and a new leg journal in `dir`, which the
    /// journal creates, as a cold `capsim` campaign starts with, plus the
    /// mode's recorder.
    fn cold_exec(&mut self, dir: &Path, mode: Mode) -> Res<ExecPolicy> {
        let store = ResultCache::at(dir.join("cache"));
        self.last_cache = Some(store.clone());
        let header = JournalHeader {
            experiment: self.kind.name().to_string(),
            seed: self.seed,
            scale: SCALE.name().to_string(),
            policy: None,
            results_version: SWEEP_RESULTS_VERSION,
        };
        let journal = Journal::begin(dir.join("journal.jsonl"), header, false)?;
        self.with_mode(
            ExecPolicy::serial().cached(store).with_journal(journal),
            mode,
        )
    }

    fn with_mode(&self, exec: ExecPolicy, mode: Mode) -> Res<ExecPolicy> {
        Ok(match mode {
            Mode::Recorded => {
                let rec = cap_obs::JsonlRecorder::create(self.scratch.join("events.jsonl"))?;
                exec.with_recorder(Arc::new(rec))
            }
            _ => exec,
        })
    }

    /// Runs one timed pass and returns its report; the caller checks it.
    pub fn pass(&mut self, mode: Mode) -> Res<PassOut> {
        let mut counts = Counts::default();
        if let Some(store) = &self.warm {
            let exec = self.with_mode(ExecPolicy::serial().cached(store.clone()), mode)?;
            let spec = &self.specs[0];
            let t0 = Instant::now();
            let run = match mode {
                Mode::Traced(tr) => tr.span("pass", || {
                    tr.span("plan.run", || Executor::run(spec, &exec))
                }),
                _ => Executor::run(spec, &exec),
            }?;
            let secs = t0.elapsed().as_secs_f64();
            return Ok(PassOut {
                secs,
                report: run.rendered().to_string(),
                counts,
            });
        }
        let dir = self.next_pass_dir()?;
        let t0 = Instant::now();
        let exec = self.cold_exec(&dir, mode)?;
        let report = match mode {
            Mode::Traced(tr) => tr.span("pass", || self.traced_pass(tr, &exec, &mut counts))?,
            _ => self.plain_pass(&exec)?,
        };
        let secs = t0.elapsed().as_secs_f64();
        Ok(PassOut {
            secs,
            report,
            counts,
        })
    }

    /// A cold pass through the public entry points: `Executor::run` over
    /// each plan, then the joint study on `interval-managed`.
    fn plain_pass(&self, exec: &ExecPolicy) -> Res<String> {
        let mut out = String::new();
        for spec in &self.specs {
            out.push_str(Executor::run(spec, exec)?.rendered());
        }
        if self.kind == Kind::IntervalManaged {
            let joint = JOINT_APPS
                .iter()
                .map(|&app| {
                    run_managed_combined_with(
                        app,
                        JOINT_INTERVALS,
                        self.seed,
                        ConfidencePolicy::default_policy(),
                        exec,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            render_joint(&mut out, &joint);
        }
        Ok(out)
    }

    /// A cold pass layer by layer: every plan leg is computed from
    /// `crate::layers` and committed to the pass's journal and cache the
    /// way the executor commits it. `Executor::run` then renders each
    /// plan's report from that cache with the program's own reduces.
    fn traced_pass(&self, tr: &Tracer, exec: &ExecPolicy, counts: &mut Counts) -> Res<String> {
        let journal = exec.journal().cloned().expect("cold passes journal");
        let store = exec.cache().cloned().expect("cold passes cache");
        let commit = |key: &CacheKey, value: Value| -> Res<()> {
            tr.span("par.journal_append", || {
                journal
                    .lock()
                    .map_err(|_| "journal mutex poisoned")?
                    .append(&key.canonical(), &value)?;
                Ok::<_, Box<dyn std::error::Error>>(())
            })?;
            if !tr.span("par.store", || store.store(key, &value)) {
                return Err(format!("result-cache store failed for {}", key.canonical()).into());
            }
            Ok(())
        };
        let seed = self.seed;
        for spec in &self.specs {
            for leg in spec.legs() {
                let key = parse_key(leg.key())?;
                let app = App::ALL
                    .into_iter()
                    .find(|a| a.name() == key.app)
                    .ok_or_else(|| format!("unknown app in leg `{}`", leg.key()))?;
                tr.span("leg", || -> Res<()> {
                    let value = match key.kind.as_str() {
                        "queue-sweep" => to_value(&layers::queue_leg(
                            tr,
                            self.queue.timing(),
                            app,
                            seed,
                            SCALE.queue_insts(),
                            counts,
                        )?),
                        "cache-sweep" => to_value(&layers::cache_leg(
                            tr,
                            self.cache.timing(),
                            app,
                            seed,
                            SCALE.cache_refs(),
                            counts,
                        )?),
                        "managed-policy" => {
                            let policy = key
                                .policy
                                .as_deref()
                                .and_then(PolicyKind::parse)
                                .ok_or_else(|| format!("no policy in leg `{}`", leg.key()))?;
                            to_value(&layers::policy_leg(
                                tr,
                                app,
                                policy,
                                seed,
                                POLICY_INTERVALS,
                                counts,
                            )?)
                        }
                        other => return Err(format!("no traced form of `{other}` legs").into()),
                    };
                    commit(&key, value)
                })?;
            }
        }
        let mut joint = Vec::new();
        if self.kind == Kind::IntervalManaged {
            for app in JOINT_APPS {
                joint.push(tr.span("leg", || -> Res<ManagedCombined> {
                    let r = layers::joint_leg(tr, app, seed, JOINT_INTERVALS, counts)?;
                    commit(&joint_key(app, seed), to_value(&r))?;
                    Ok(r)
                })?);
            }
        }
        let render = ExecPolicy::serial().cached(store.clone());
        let mut out = String::new();
        for spec in &self.specs {
            out.push_str(
                tr.span("plan.run", || Executor::run(spec, &render))?
                    .rendered(),
            );
        }
        if self.kind == Kind::IntervalManaged {
            tr.span("core.render", || render_joint(&mut out, &joint));
        }
        Ok(out)
    }

    /// The result cache the latest pass left behind.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.warm.as_ref().or(self.last_cache.as_ref())
    }

    /// Classifies every leg of the workload's plans against the latest
    /// pass's cache: (journal hits, cache hits, misses). After any pass
    /// every leg must be a cache hit.
    pub fn classify(&self, tr: Option<&Tracer>) -> Res<(u64, u64, u64)> {
        let exec = ExecPolicy::serial().cached(self.cache().ok_or("no pass ran")?.clone());
        let mut tally = (0u64, 0u64, 0u64);
        for spec in &self.specs {
            let res = match tr {
                Some(tr) => tr.span("plan.resolve", || Executor::resolve(spec, &exec)),
                None => Executor::resolve(spec, &exec),
            };
            let mut kinds: Vec<&str> = res.legs.iter().map(|l| l.kind.as_str()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            for kind in kinds {
                tally.0 += res.count(kind, LegClass::JournalHit) as u64;
                tally.1 += res.count(kind, LegClass::CacheHit) as u64;
                tally.2 += res.count(kind, LegClass::Miss) as u64;
            }
        }
        Ok(tally)
    }

    /// Probes the result cache once per plan leg and joint-study leg,
    /// one span per probe.
    pub fn probe_legs(&self, tr: &Tracer) -> Res<()> {
        let store = self.cache().ok_or("no pass ran")?;
        let mut keys = Vec::new();
        for spec in &self.specs {
            for leg in spec.legs() {
                keys.push(parse_key(leg.key())?);
            }
        }
        // The joint study has no plan builder; probing its restated keys
        // checks them against what `run_managed_combined_with` stored.
        if self.kind == Kind::IntervalManaged {
            keys.extend(JOINT_APPS.iter().map(|&app| joint_key(app, self.seed)));
        }
        for key in keys {
            let (value, _) = tr.span("par.probe", || store.probe(&key));
            if value.is_none() {
                return Err(format!("probe missed {}", key.canonical()).into());
            }
        }
        Ok(())
    }

    /// Mean |paper − measured| in percentage points over the headline
    /// rows of `results/headline.txt` this workload produces. The sweep
    /// workloads read their curves back from the latest pass's cache;
    /// `interval-managed`, which produces no headline row, reports every
    /// row, through the quality cache.
    pub fn paper_gap_pp(&self) -> Res<f64> {
        let exec = match self.kind {
            Kind::IntervalManaged => self.quality_exec(),
            _ => ExecPolicy::serial().cached(self.cache().ok_or("no pass ran")?.clone()),
        };
        let (cache_rows, queue_rows) = match self.kind {
            Kind::QueueCold => (false, true),
            Kind::CacheCold => (true, false),
            Kind::IntervalManaged | Kind::WarmReplay => (true, true),
        };
        let mut measured: Vec<(&str, f64)> = Vec::new();
        if cache_rows {
            let c = self.cache.headline_with(&exec)?;
            measured.extend([
                ("cache: average TPImiss reduction", c.tpimiss_reduction),
                ("cache: average TPI reduction", c.tpi_reduction),
                ("cache: stereo TPI reduction", c.stereo_tpi_reduction),
                (
                    "cache: stereo TPImiss reduction",
                    c.stereo_tpimiss_reduction,
                ),
                ("cache: appcg TPI reduction", c.appcg_tpi_reduction),
                (
                    "cache: compress TPImiss reduction",
                    c.compress_tpimiss_reduction,
                ),
            ]);
        }
        if queue_rows {
            let q = self.queue.headline_with(&exec)?;
            measured.extend([
                ("queue: average TPI reduction", q.tpi_reduction),
                ("queue: appcg TPI reduction", q.appcg_tpi_reduction),
                ("queue: fpppp TPI reduction", q.fpppp_tpi_reduction),
                ("queue: radar TPI reduction", q.radar_tpi_reduction),
                ("queue: compress TPI reduction", q.compress_tpi_reduction),
            ]);
        }
        let headline = read(&self.root, "results/headline.txt")?;
        let mut gaps = Vec::new();
        for (metric, value) in &measured {
            let line = headline
                .lines()
                .find(|l| l.starts_with(metric))
                .ok_or_else(|| format!("results/headline.txt has no row `{metric}`"))?;
            let cols: Vec<&str> = line[metric.len()..].split_whitespace().collect();
            let pct = |s: &str| -> Res<f64> {
                Ok(s.strip_suffix('%')
                    .ok_or_else(|| format!("bad headline cell `{s}`"))?
                    .parse::<f64>()?)
            };
            let (paper, golden) = match cols.as_slice() {
                [p, m] => (pct(p)?, pct(m)?),
                _ => return Err(format!("bad headline row `{line}`").into()),
            };
            if self.seed == DEFAULT_SEED
                && format!("{:.1}", value * 100.0) != format!("{golden:.1}")
            {
                return Err(format!(
                    "`{metric}` measures {:.1}% but results/headline.txt says {golden:.1}%",
                    value * 100.0
                )
                .into());
            }
            gaps.push((paper - value * 100.0).abs());
        }
        Ok(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }

    /// A result cache that outlives the run, for the decision-quality
    /// computations a workload makes outside its own pass: their curve
    /// and interval-series legs are computed by the first run of a seed
    /// and replayed by later runs of the same build. The managed runs
    /// themselves are not plan legs and are recomputed every time.
    fn quality_exec(&self) -> ExecPolicy {
        ExecPolicy::serial().cached(ResultCache::at(self.state.join("quality-cache")))
    }

    /// Mean over the policy-comparison apps of (confidence-managed TPI −
    /// per-interval oracle TPI) / oracle TPI, in percent.
    pub fn oracle_gap_pct(&self) -> Res<f64> {
        let exec = self.quality_exec();
        let mut sum = 0.0;
        for app in POLICY_APPS {
            let c = self.interval.adaptive_comparison_with(
                app,
                POLICY_INTERVALS,
                ConfidencePolicy::default_policy(),
                40,
                &exec,
            )?;
            sum += (c.managed_tpi - c.oracle_tpi) / c.oracle_tpi * 100.0;
        }
        Ok(sum / POLICY_APPS.len() as f64)
    }
}

/// A leg value as the executor journals and caches it.
fn to_value<T: Serialize>(value: &T) -> Value {
    let text = serde_json::to_string(value).expect("vendored serializer is infallible");
    serde_json::from_str(&text).expect("emitted JSON parses back")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_keys_round_trip_through_their_canonical_form() {
        let mut keys = vec![joint_key(App::Appcg, 3).canonical()];
        for kind in Kind::ALL {
            for spec in plans(kind, 5).unwrap() {
                keys.extend(spec.legs().iter().map(|l| l.key().to_string()));
            }
        }
        for key in keys {
            assert_eq!(parse_key(&key).unwrap().canonical(), key);
        }
        assert!(parse_key("queue-sweep|gcc|default|seed=7|W|v1").is_err());
        assert!(parse_key("not a key").is_err());
    }
}
