//! The cap benchmark: one workload per run, timed end to end with
//! tracing off, or layer by layer with tracing on.
//!
//! ```text
//! perfbench --workload <queue-cold|cache-cold|interval-managed|warm-replay>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root: it reads the committed goldens under
//! `results/` and keeps its scratch files, spans and determinism locks
//! under `.bench_state/`. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for what each workload and metric means.

mod layers;
mod trace;
mod workloads;

use cap_core::experiments::DEFAULT_SEED;
use layers::{Counts, Res};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Kind, Mode, Workload};

/// Set-ups are timed in batches spread through the run. The first batch
/// sets up back to back for `FIRST_SETUP_BATCH`, and before each later
/// pass round a batch makes up set-up's share of the run so far to
/// `SETUP_SHARE`. Every batch sets up at least once, and a run has at
/// least `MIN_SETUP_BATCHES`. `setup_s` summarises the batches' median
/// set-up times with [`summarise`].
const FIRST_SETUP_BATCH: Duration = Duration::from_millis(50);
const SETUP_SHARE: f64 = 0.1;
const MIN_SETUP_BATCHES: usize = 3;
/// Fewest timed passes (untraced) or pass rounds (traced) per run.
const MIN_PASSES: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Res<Args> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`").into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`").into()),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        traced,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Summarises a run's timings of one kind. Code that touches much
/// memory runs up to twice as slowly in spells of 0.1 s to tens of
/// seconds, when other tenants of the host contend for its caches. A
/// timing of seconds (a cold pass, a cold fill) spans several spells and
/// none runs clear of them, so the mean averages them over the run. A
/// `short` timing of micro- or milliseconds (a cold workload's set-up, a
/// replay) falls inside one spell or between two, so the fastest is the
/// program's speed clear of them, where a median or mean would follow
/// the share of the run the spells took.
fn summarise(times: &[f64], short: bool) -> f64 {
    if short {
        times.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        times.iter().sum::<f64>() / times.len() as f64
    }
}

fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Metric name → (value, unit), in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Values that must repeat exactly across passes, runs and modes.
type Locked = BTreeMap<&'static str, String>;

/// Compares `locked` with what earlier runs of this build, workload and
/// seed recorded, then records the union.
fn check_lock(path: &Path, locked: &Locked) -> Res<()> {
    let mut all: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                all.insert(k.to_string(), v.to_string());
            }
        }
    }
    for (k, v) in locked {
        if let Some(old) = all.get(*k) {
            if old != v {
                return Err(format!(
                    "deterministic value `{k}` changed between runs: {old} then {v}"
                )
                .into());
            }
        }
        all.insert((*k).to_string(), v.clone());
    }
    let text: String = all.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    std::fs::write(path, text)?;
    Ok(())
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    locked: Locked,
}

/// Times of each pass kind, and the run ids of the traced passes.
#[derive(Default)]
struct Passes {
    plain: Vec<f64>,
    recorded: Vec<f64>,
    traced: Vec<f64>,
    traced_runs: Vec<u32>,
    /// The run ids of the probes made right after each traced pass.
    probe_runs: Vec<u32>,
    counts: Option<Counts>,
}

/// One batch of set-ups in `dir`, back to back until `span` is spent and
/// at least once. Returns the median set-up time, the time spent and the
/// last set-up's workload.
fn setup_batch(
    args: &Args,
    root: &Path,
    state: &Path,
    dir: &Path,
    span: Duration,
    tr: Option<&Tracer>,
) -> Res<(f64, f64, Workload)> {
    let mut secs = Vec::new();
    let mut last = None;
    while last.is_none() || secs.iter().sum::<f64>() < span.as_secs_f64() {
        workloads::clear_setup_dir(dir)?;
        let t0 = Instant::now();
        last = Some(Workload::setup(args.kind, args.seed, root, state, dir, tr)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let w = last.expect("at least one set-up");
    Ok((median(&secs), secs.iter().sum(), w))
}

fn measure(args: &Args, root: &Path, state: &Path, scratch: &Path, tr: &Tracer) -> Res<Outcome> {
    let traced = args.traced.then_some(tr);
    let golden = workloads::golden_report(args.kind, args.seed, root)?;
    let start = Instant::now();
    // The first batch is traced and leaves the workload the passes use;
    // later batches set up in a directory of their own.
    let (first, mut setup_total, mut w) =
        setup_batch(args, root, state, scratch, FIRST_SETUP_BATCH, traced)?;
    let mut setup_medians = vec![first];
    let extra_dir = scratch.join("extra");
    let extra_batch = |span: Duration, w: &Workload| -> Res<(f64, f64)> {
        let (med, spent, extra) = setup_batch(args, root, state, &extra_dir, span, None)?;
        if extra.expected.is_some() && extra.expected != w.expected {
            return Err("a later set-up's cold fill rendered other bytes".into());
        }
        Ok((med, spent))
    };
    w.check_plans()?;
    if golden.is_some() {
        w.expected = golden;
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut p = Passes::default();
    let budget = Duration::from_secs(args.seconds);
    let mut rounds = 0;
    let min_rounds = if args.traced {
        MIN_TRACED_ROUNDS
    } else {
        MIN_PASSES
    };
    while rounds < min_rounds || start.elapsed() < budget {
        let owed = SETUP_SHARE * start.elapsed().as_secs_f64() - setup_total;
        if rounds > 0 && owed > 0.0 {
            let (med, spent) = extra_batch(Duration::from_secs_f64(owed), &w)?;
            setup_medians.push(med);
            setup_total += spent;
        }
        // Plain last, so that the checks after the loop read the cache
        // a pass through the public entry points filled.
        let modes: &[Mode] = if args.traced {
            &[Mode::Traced(tr), Mode::Recorded, Mode::Plain]
        } else {
            &[Mode::Plain]
        };
        for &mode in modes {
            attempted += 1;
            let run = match mode {
                Mode::Traced(tr) => Some(tr.next_run()),
                _ => None,
            };
            let out = match w.pass(mode) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("pass {attempted} failed: {e}");
                    failed += 1;
                    continue;
                }
            };
            match &w.expected {
                Some(want) if *want != out.report => {
                    let line = want
                        .lines()
                        .zip(out.report.lines())
                        .position(|(a, b)| a != b);
                    eprintln!("pass {attempted}: report differs from the expected bytes (first differing line: {line:?})");
                    failed += 1;
                    continue;
                }
                Some(_) => {}
                None => w.expected = Some(out.report.clone()),
            }
            match mode {
                Mode::Plain => p.plain.push(out.secs),
                Mode::Recorded => p.recorded.push(out.secs),
                Mode::Traced(_) => {
                    p.traced.push(out.secs);
                    p.traced_runs.extend(run);
                    match p.counts {
                        Some(c) if c != out.counts => {
                            return Err(format!(
                                "work counts changed between passes: {c:?} then {:?}",
                                out.counts
                            )
                            .into())
                        }
                        _ => p.counts = Some(out.counts),
                    }
                    p.probe_runs.push(tr.next_run());
                    w.probe_legs(tr)?;
                }
            }
        }
        rounds += 1;
    }
    if p.plain.is_empty() || (args.traced && p.traced.is_empty()) {
        return Err(format!("all {attempted} passes failed").into());
    }
    while setup_medians.len() < MIN_SETUP_BATCHES {
        setup_medians.push(extra_batch(FIRST_SETUP_BATCH, &w)?.0);
    }
    // Before the decision-quality computations, which are not the
    // workload's and may or may not hit the quality cache.
    let peak_rss = peak_rss_mb()?;

    let mut locked = Locked::new();
    let paper_gap = w.paper_gap_pp()?;
    let oracle_gap = w.oracle_gap_pct()?;
    locked.insert("paper_gap_pp", format!("{paper_gap:?}"));
    locked.insert("oracle_gap_pct", format!("{oracle_gap:?}"));
    let resolve_run = tr.next_run();
    let (journal_hits, cache_hits, misses) = w.classify(traced)?;
    let plan_legs = journal_hits + cache_hits + misses;
    if cache_hits != plan_legs {
        return Err(format!(
            "after a pass {cache_hits} of {plan_legs} plan legs hit the result cache"
        )
        .into());
    }
    locked.insert("plan.legs", plan_legs.to_string());
    locked.insert("plan.cache_hits", cache_hits.to_string());

    let metrics = if args.traced {
        // Every plan and joint-study leg must be found, under its key, in
        // the cache the last (plain) pass filled.
        w.probe_legs(tr)?;
        per_layer(&p, tr, resolve_run, plan_legs, cache_hits, &mut locked)
    } else {
        vec![
            (
                "setup_s",
                summarise(&setup_medians, args.kind != Kind::WarmReplay),
                "s",
            ),
            (
                "pass_s",
                summarise(&p.plain, args.kind == Kind::WarmReplay),
                "s",
            ),
            ("peak_rss_mb", peak_rss, "MB"),
            ("paper_gap_pp", paper_gap, "pp"),
            ("oracle_gap_pct", oracle_gap, "%"),
        ]
    };
    eprintln!(
        "{} seed {}: {} set-up batches, {} plain / {} recorded / {} traced passes",
        args.kind.name(),
        args.seed,
        setup_medians.len(),
        p.plain.len(),
        p.recorded.len(),
        p.traced.len()
    );
    if p.plain.len() <= 50 {
        let secs: Vec<String> = p.plain.iter().map(|s| format!("{s:.3}")).collect();
        eprintln!("plain pass seconds: {}", secs.join(" "));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        locked,
    })
}

/// Derives the per-layer metrics from the traced passes' spans.
fn per_layer(
    p: &Passes,
    tr: &Tracer,
    resolve_run: u32,
    plan_legs: u64,
    cache_hits: u64,
    locked: &mut Locked,
) -> Metrics {
    let spans = tr.spans();
    let c = p.counts.expect("a traced pass succeeded");
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    // Per traced pass, the self time of every span name.
    let totals: Vec<_> = p
        .traced_runs
        .iter()
        .map(|&r| trace::totals(&spans, r))
        .collect();
    let self_ns = |name: &str| -> Vec<u64> {
        totals
            .iter()
            .map(|t| t.get(name).map_or(0, |t| t.self_ns))
            .collect()
    };
    let med_per = |name: &str, n: u64| {
        median(
            &self_ns(name)
                .iter()
                .map(|&ns| per(ns, n))
                .collect::<Vec<_>>(),
        )
    };
    let med_call_us = |run: &[u32], name: &str| {
        let d: Vec<f64> = run
            .iter()
            .flat_map(|&r| trace::durations(&spans, r, name))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        median(&d)
    };
    let legs: Vec<Vec<f64>> = p
        .traced_runs
        .iter()
        .map(|&r| {
            trace::durations(&spans, r, "leg")
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect()
        })
        .collect();
    let leg_count = legs.first().map_or(0, Vec::len) as u64;
    let leg_p50 = median(&legs.iter().map(|l| median(l)).collect::<Vec<_>>());
    let leg_max = median(
        &legs
            .iter()
            .map(|l| l.iter().copied().fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    );
    // Shares of the traced pass: all layer spans' self time, and the
    // generator and simulator layers' alone.
    let share = |pick: &dyn Fn(&str) -> bool| {
        median(
            &totals
                .iter()
                .map(|t| {
                    let ns: u64 = t
                        .iter()
                        .filter(|(n, _)| pick(n))
                        .map(|(_, v)| v.self_ns)
                        .sum();
                    per(ns * 100, t.get("pass").map_or(0, |v| v.total_ns))
                })
                .collect::<Vec<_>>(),
        )
    };
    let cover = share(&|n| !matches!(n, "pass" | "leg"));
    let sim_share = share(&|n| {
        ["trace.", "ooo.", "cache."]
            .iter()
            .any(|l| n.starts_with(l))
    });
    let probe_us = med_call_us(&p.probe_runs, "par.probe");
    // Pass time not covered by leg compute or cache/journal calls: the
    // pass span less its leg spans (compute, journal append and store)
    // and less one result-cache probe per plan leg, which
    // `Executor::run` makes when it renders. The probes are timed right
    // after each pass, on the cache it left.
    let overhead_ms = median(
        &totals
            .iter()
            .zip(&legs)
            .zip(&p.probe_runs)
            .map(|((t, legs), &probe_run)| {
                let pass_ms = t.get("pass").map_or(0.0, |v| v.total_ns as f64 / 1e6);
                let probes_ms = plan_legs as f64 * med_call_us(&[probe_run], "par.probe") / 1e3;
                pass_ms - legs.iter().sum::<f64>() - probes_ms
            })
            .collect::<Vec<_>>(),
    );
    let resolve_ms = trace::totals(&spans, resolve_run)
        .get("plan.resolve")
        .map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let models_ms = median(
        &trace::durations(&spans, 0, "timing.models")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let pct = |a: &[f64], b: &[f64]| (median(a) / median(b) - 1.0) * 100.0;

    for (k, v) in [
        ("trace.insts", c.insts_generated),
        ("trace.refs", c.refs_generated),
        ("ooo.resizes", c.resizes),
        ("manager.decisions", c.decisions),
        ("manager.switches", c.switches),
        ("legs.count", leg_count),
    ] {
        locked.insert(k, v.to_string());
    }
    vec![
        (
            "trace.inst_gen_ns",
            med_per("trace.inst_gen", c.insts_generated),
            "ns",
        ),
        (
            "trace.ref_gen_ns",
            med_per("trace.ref_gen", c.refs_generated),
            "ns",
        ),
        ("trace.insts", c.insts_generated as f64, "count"),
        ("trace.refs", c.refs_generated as f64, "count"),
        (
            "ooo.sweep_ns",
            med_per("ooo.sweep", c.sweep_inst_windows),
            "ns",
        ),
        ("ooo.core_ns", med_per("ooo.core", c.core_insts), "ns"),
        ("ooo.resizes", c.resizes as f64, "count"),
        (
            "cache.onepass_ns",
            med_per("cache.onepass", c.onepass_refs),
            "ns",
        ),
        (
            "cache.access_ns",
            med_per("cache.access", c.cache_accesses),
            "ns",
        ),
        ("timing.models_ms", models_ms, "ms"),
        ("legs.count", leg_count as f64, "count"),
        ("legs.p50_ms", leg_p50, "ms"),
        ("legs.max_ms", leg_max, "ms"),
        (
            "manager.observe_ns",
            med_per("manager.observe", c.decisions),
            "ns",
        ),
        ("manager.decisions", c.decisions as f64, "count"),
        ("manager.switches", c.switches as f64, "count"),
        ("plan.legs", plan_legs as f64, "count"),
        ("plan.cache_hit_ratio", per(cache_hits, plan_legs), "ratio"),
        ("plan.resolve_ms", resolve_ms, "ms"),
        ("plan.overhead_ms", overhead_ms, "ms"),
        ("par.probe_us", probe_us, "us"),
        (
            "par.store_us",
            med_call_us(&p.traced_runs, "par.store"),
            "us",
        ),
        (
            "par.journal_append_us",
            med_call_us(&p.traced_runs, "par.journal_append"),
            "us",
        ),
        ("obs.recorder_overhead_pct", pct(&p.recorded, &p.plain), "%"),
        ("bench.trace_overhead_pct", pct(&p.traced, &p.plain), "%"),
        ("bench.layer_cover_pct", cover, "%"),
        ("bench.sim_share_pct", sim_share, "%"),
    ]
}

fn json_line(o: &Outcome) -> Res<String> {
    let mut fields = Vec::new();
    for (name, value, unit) in &o.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

/// Names the running binary by an FNV-1a hash of its bytes, so that
/// state kept between runs is shared only by runs of the same build.
fn build_id() -> Res<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

fn run() -> Res<()> {
    let args = parse_args()?;
    let root = std::env::current_dir()?;
    let state = root
        .join(workloads::STATE_DIR)
        .join(format!("build-{}", build_id()?));
    let scratch: PathBuf = state.join(format!("{}-{}", args.kind.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let tr = Tracer::new();
    let outcome = measure(&args, &root, &state, &scratch, &tr);
    let cleanup = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    cleanup?;
    check_lock(
        &state.join(format!("lock-{}-{}.txt", args.kind.name(), args.seed)),
        &outcome.locked,
    )?;
    if args.traced {
        tr.write_jsonl(&state.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed)))?;
        for (name, value, unit) in &outcome.metrics {
            eprintln!("  {name:<26} {value:>14.4} {unit}");
        }
    }
    println!("{}", json_line(&outcome)?);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
