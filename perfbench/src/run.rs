//! One benchmark run: set-up, reference proof, timed passes, metrics.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{Class, Metric, END_TO_END, PASS, SETUP};
use crate::trace::Tracer;
use crate::workload::{self, Algo, Params, PassOutcome, Traced};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload and its inputs.
    pub params: Params,
    /// Minimum measuring time; a round of passes that starts before it
    /// ends is finished.
    pub seconds: f64,
    /// Interleave traced passes and report per-layer metrics.
    pub trace: bool,
    /// Directory for pass outputs.
    pub work_dir: PathBuf,
}

/// One pass as the run loop saw it.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// Algorithm.
    pub algo: Algo,
    /// Whether the pass ran through the wrappers.
    pub traced: bool,
    /// A warm-up pass: checked, but not timed.
    pub warmup: bool,
    /// The pass, or why it failed to run.
    pub outcome: Result<PassOutcome, String>,
    /// Why its output was rejected, if it was.
    pub mismatch: Option<String>,
    /// Peak resident memory during the pass, MB.
    pub peak_rss_mb: f64,
}

impl PassRecord {
    /// `true` when the pass ran and matched its reference.
    pub fn ok(&self) -> bool {
        self.outcome.is_ok() && self.mismatch.is_none()
    }
}

/// Everything a run measured.
pub struct RunResult {
    /// No pass failed and every reference was proven lossless.
    pub correct: bool,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that errored or whose output differed from the reference.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Configuration, passes, per-pass values and spans, as JSON.
    pub report: String,
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Deletes the run's directory however the run ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compares every pass with its algorithm's reference. Every pass of
/// an algorithm whose reference is not proven lossless fails.
pub fn gate(passes: &mut [PassRecord], references: &[crate::check::Reference]) {
    for rec in passes {
        let i = Algo::ALL.iter().position(|&a| a == rec.algo).expect("known algorithm");
        if let Ok(out) = &rec.outcome {
            rec.mismatch = if references[i].proven {
                out.out.diff(&references[i].fingerprint)
            } else {
                Some("reference is not proven lossless".to_string())
            };
        }
    }
}

/// Passes that ran and matched their reference ÷ passes attempted.
pub fn ops_ok_frac(passes: &[PassRecord]) -> f64 {
    let ok = passes.iter().filter(|r| r.ok()).count();
    ok as f64 / passes.len().max(1) as f64
}

/// Runs set-up, the proof and the timed passes of one workload.
///
/// # Errors
/// Returns a message when set-up fails: without an index there is
/// nothing to time.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let params = opts.params;
    let dir = opts.work_dir.join(format!("{}-{}", params.kind.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _guard = DirGuard(dir.clone());
    let mut w = workload::make(params, &dir, false);
    let mut tracer = Tracer::default();
    let mut next_pass = 0u32;

    let mut setups = Vec::new();
    for _ in 0..params.setup_reps {
        setups.push(w.setup(traced(&mut tracer, &mut next_pass, opts.trace))?);
    }
    let proved = Instant::now();
    let proof = w.prove();
    for e in &proof.errors {
        eprintln!("proof failed: {e}");
    }
    crate::host::trim_heap();
    let rss_reset = crate::host::reset_peak_rss();

    let mut started = Instant::now();
    eprintln!(
        "{}: {} set-ups {:.2} s, proof {:.2} s",
        params.kind.name(),
        setups.len(),
        setups.iter().map(|s| s.total_s).sum::<f64>(),
        started.duration_since(proved).as_secs_f64()
    );
    let mut passes: Vec<PassRecord> = Vec::new();
    for round in 0.. {
        let warmup = round == 0;
        for algo in Algo::ALL {
            for on in [false, true] {
                if on && (warmup || !opts.trace) {
                    continue;
                }
                crate::host::reset_peak_rss();
                let outcome = w.pass(algo, traced(&mut tracer, &mut next_pass, on));
                let peak_rss_mb = crate::host::peak_rss_mb();
                if let Err(e) = &outcome {
                    eprintln!("{} pass failed: {e}", algo.name());
                }
                passes.push(PassRecord {
                    algo,
                    traced: on,
                    warmup,
                    outcome,
                    mismatch: None,
                    peak_rss_mb,
                });
            }
        }
        if warmup {
            started = Instant::now();
        } else if started.elapsed() >= Duration::from_secs_f64(opts.seconds) {
            break;
        }
    }
    gate(&mut passes, &proof.references);
    for rec in passes.iter().filter(|r| r.mismatch.is_some()) {
        eprintln!(
            "{} pass differs from reference: {}",
            rec.algo.name(),
            rec.mismatch.as_deref().unwrap_or("")
        );
    }

    let attempted = passes.len() as u64;
    let failed = passes.iter().filter(|r| !r.ok()).count() as u64;
    let times = |algo: Algo, on: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|r| r.algo == algo && r.traced == on && !r.warmup)
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| o.secs))
            .collect()
    };

    let mut pass_times = String::new();
    for (i, (algo, on)) in Algo::ALL.iter().flat_map(|&a| [(a, false), (a, true)]).enumerate() {
        let t = times(algo, on);
        let lo = t.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let (mid, hi) = (median(&t), t.iter().copied().fold(0.0, f64::max));
        let name = format!("{}{}", algo.name(), if on { "_traced" } else { "" });
        if !t.is_empty() {
            eprintln!(
                "{name}: {} passes, min {lo:.4} s, median {mid:.4} s, max {hi:.4} s",
                t.len()
            );
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            pass_times,
            "{sep}\"{name}\": {{\"count\": {}, \"min\": {lo}, \"median\": {mid}, \"max\": {hi}}}",
            t.len()
        );
    }
    let peaks: Vec<f64> =
        passes.iter().filter(|r| !r.traced && !r.warmup).map(|r| r.peak_rss_mb).collect();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut exact_violations = Vec::new();
    let unit = |table: &[Metric], name: &str| table.iter().find(|m| m.name == name).map(|m| m.unit);
    if opts.trace {
        for m in SETUP {
            let v: Vec<f64> = setups.iter().map(|s| lookup(&s.layers, m.name)).collect();
            metrics.push((m.name.to_string(), median(&v), m.unit));
        }
        for algo in Algo::ALL {
            let traced_passes: Vec<&PassOutcome> = passes
                .iter()
                .filter(|r| r.algo == algo && r.traced)
                .filter_map(|r| r.outcome.as_ref().ok())
                .collect();
            for m in PASS {
                let v: Vec<f64> = traced_passes.iter().map(|o| lookup(&o.layers, m.name)).collect();
                let value = if m.name == "trace.overhead_frac" {
                    let plain = median(&times(algo, false));
                    if plain > 0.0 {
                        median(&times(algo, true)) / plain - 1.0
                    } else {
                        0.0
                    }
                } else {
                    median(&v)
                };
                if m.class == Class::Exact && v.windows(2).any(|p| p[0] != p[1]) {
                    exact_violations.push(format!("{}.{}", algo.name(), m.name));
                }
                metrics.push((format!("{}.{}", algo.name(), m.name), value, m.unit));
            }
        }
        for v in &exact_violations {
            eprintln!("warning: {v} is classed exact but differed between traced passes");
        }
    } else {
        let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
        let e2e = [
            ("setup_s", setup_s),
            ("ncsj_s", median(&times(Algo::Ncsj, false))),
            ("csj10_s", median(&times(Algo::Csj10, false))),
            ("ncsj_bytes_per_link", proof.references[0].bytes_per_link()),
            ("csj10_bytes_per_link", proof.references[1].bytes_per_link()),
            ("peak_rss_mb", median(&peaks)),
            ("ops_ok_frac", ops_ok_frac(&passes)),
        ];
        for (name, value) in e2e {
            metrics.push((name.to_string(), value, unit(END_TO_END, name).expect("listed")));
        }
    }

    let correct = failed == 0 && proof.errors.is_empty();
    let mut r = String::new();
    let _ = write!(r, "{{\n\"config\": {{");
    let mut config = crate::host::describe(opts);
    config.extend(w.describe());
    config.push(("peak_rss_reset", rss_reset.to_string()));
    for (i, (k, v)) in config.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(r, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
    }
    let _ = write!(
        r,
        "}},\n\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n\"proof_errors\": {:?},\n\"exact_violations\": {:?},",
        proof.errors, exact_violations
    );
    let setup_totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let _ = write!(
        r,
        "\n\"setup_s\": {setup_totals:?},\n\"pass_times\": {{{pass_times}}},\n\"references\": ["
    );
    for (i, (algo, rf)) in Algo::ALL.iter().zip(&proof.references).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let f = rf.fingerprint;
        let _ = write!(
            r,
            "{sep}{{\"algo\": \"{}\", \"encoded_links\": {}, \"distinct_links\": {}, \"rows\": {}, \"bytes\": {}, \"hash\": \"{:016x}\"}}",
            algo.name(), f.encoded_links, rf.distinct_links, f.rows, f.bytes, f.hash
        );
    }
    let _ = write!(r, "],\n\"passes\": [");
    for (i, p) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let secs = p.outcome.as_ref().map_or(f64::NAN, |o| o.secs);
        let _ = write!(
            r,
            "{sep}\n{{\"algo\": \"{}\", \"traced\": {}, \"warmup\": {}, \"ok\": {}, \"peak_rss_mb\": {}, \"secs\": {}}}",
            p.algo.name(),
            p.traced,
            p.warmup,
            p.ok(),
            p.peak_rss_mb,
            if secs.is_nan() { "null".to_string() } else { secs.to_string() }
        );
    }
    let _ = write!(r, "\n],\n\"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(r, "{sep}\n\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    let _ = write!(r, "\n}},\n\"spans\": {}\n}}\n", tracer.to_json());
    Ok(RunResult { correct, attempted, failed, metrics, report: r })
}

/// Numbers every set-up repetition and pass; `Some` when traced.
fn traced<'a>(tracer: &'a mut Tracer, next: &mut u32, on: bool) -> Option<Traced<'a>> {
    *next += 1;
    on.then_some(Traced { tracer, pass: *next })
}

fn lookup(layers: &[(&'static str, f64)], name: &str) -> f64 {
    layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}
