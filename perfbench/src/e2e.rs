//! The plain run: end-to-end metrics with no probes attached.
//!
//! A run covers several inputs made from its seed
//! ([`input_seeds`](crate::drive::input_seeds)) and cycles through them,
//! one per repetition, so that a metric describes the workload rather
//! than one draw of it. Each metric is the mean over inputs of that
//! input's median.

use crate::drive::{build_world, calib_ms, golden_check, step_world, Stepped};
use crate::outcome::{same_fingerprint, Budget, Outcome};
use crate::stats::{median, tail};
use dtn_sim::config::ScenarioConfig;
use dtn_validate::ReportFingerprint;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Samples of one metric, per input.
#[derive(Default)]
struct Series(BTreeMap<usize, Vec<f64>>);

impl Series {
    fn push(&mut self, input: usize, v: f64) {
        self.0.entry(input).or_default().push(v);
    }

    /// Mean over inputs of each input's median; `None` without samples.
    fn value(&self) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        Some(self.0.values().map(|v| median(v)).sum::<f64>() / self.0.len() as f64)
    }
}

/// Samples gathered across the repetitions of one run.
#[derive(Default)]
struct Samples {
    calib_ms: Vec<f64>,
    setup_s: Series,
    run_s: Series,
    run_2t_s: Series,
    step_p50_s: Series,
    step_tail_s: Series,
}

/// One world run at `threads` world threads, compared with `reference`.
/// Returns the host seconds `World::build` took and the stepped run.
fn world_run(
    cfg: &ScenarioConfig,
    threads: usize,
    reference: &mut Option<ReportFingerprint>,
) -> Result<(f64, Stepped), String> {
    let start = Instant::now();
    let world = build_world(cfg, threads, None);
    let built = start.elapsed().as_secs_f64();
    let run = step_world(world, cfg, false);
    same_fingerprint(reference, &run.fingerprint)?;
    Ok((built, run))
}

/// Runs `cfg` at 1 world thread and files its build time, run time and
/// tick-window samples under `input`.
fn windowed_run(
    out: &mut Outcome,
    s: &mut Samples,
    cfg: &ScenarioConfig,
    (rep, input): (usize, usize),
    reference: &mut Option<ReportFingerprint>,
) {
    let Some((built, run)) = out.checks.attempt(&format!("rep {rep}: 1-thread run"), || {
        world_run(cfg, 1, reference)
    }) else {
        return;
    };
    let (tail_s, pct) = tail(&run.windows).expect("every workload has over ten tick windows");
    println!(
        "rep {rep} (seed {}): 1-thread world {:.4} s, step p50 {:.4} ms, \
         tail {:.4} ms (p{pct:.3} of {} windows)",
        cfg.seed,
        run.run_s(),
        median(&run.windows) * 1e3,
        tail_s * 1e3,
        run.windows.len()
    );
    s.step_p50_s.push(input, median(&run.windows));
    s.step_tail_s.push(input, tail_s);
    s.setup_s.push(input, built);
    s.run_s.push(input, run.run_s());
}

/// Runs `cfg` at 2 world threads and files its run time under `input`.
fn two_thread_run(
    out: &mut Outcome,
    s: &mut Samples,
    cfg: &ScenarioConfig,
    (rep, input): (usize, usize),
    reference: &mut Option<ReportFingerprint>,
) {
    if let Some((_, run)) = out.checks.attempt(&format!("rep {rep}: 2-thread run"), || {
        world_run(cfg, 2, reference)
    }) {
        println!(
            "rep {rep} (seed {}): 2-thread world {:.4} s",
            cfg.seed,
            run.run_s()
        );
        s.run_2t_s.push(input, run.run_s());
    }
}

/// A single-world workload: each repetition times `extra_builds` bare
/// `World::build` calls (small worlds build in microseconds, so one
/// sample per run would be noise), then runs the world at 1 and at 2
/// world threads. `cfgs` are the run's inputs.
pub fn single_world(
    cfgs: &[ScenarioConfig],
    root: &Path,
    budget: &Budget,
    extra_builds: usize,
) -> Option<Outcome> {
    let mut out = Outcome::default();
    out.checks.attempt("golden headline", || golden_check(root));
    let mut s = Samples::default();
    let mut references = vec![None; cfgs.len()];
    let (mut reps, mut longest) = (0, 0.0f64);
    while budget.another(reps, cfgs.len(), longest) {
        let start = Instant::now();
        let input = reps % cfgs.len();
        let cfg = &cfgs[input];
        s.calib_ms.push(calib_ms());
        for _ in 0..extra_builds {
            let b = Instant::now();
            drop(std::hint::black_box(build_world(cfg, 1, None)));
            s.setup_s.push(input, b.elapsed().as_secs_f64());
        }
        let reference = &mut references[input];
        windowed_run(&mut out, &mut s, cfg, (reps, input), reference);
        two_thread_run(&mut out, &mut s, cfg, (reps, input), reference);
        reps += 1;
        longest = longest.max(start.elapsed().as_secs_f64());
    }
    finish(out, &s, reps)
}

/// Reduces the samples to the end-to-end metrics. `None` when some
/// metric has no sample at all (every attempt at it failed).
fn finish(mut out: Outcome, s: &Samples, reps: usize) -> Option<Outcome> {
    let (Some(setup), Some(run), Some(run_2t), Some(p50), Some(tail), Some(rss)) = (
        s.setup_s.value(),
        s.run_s.value(),
        s.run_2t_s.value(),
        s.step_p50_s.value(),
        s.step_tail_s.value(),
        dtn_telemetry::peak_rss_bytes(),
    ) else {
        eprintln!("no successful repetition of some measurement, or no peak RSS; no result");
        return None;
    };
    let attempted = out.checks.attempted.max(1) as f64;
    println!(
        "{reps} repetitions; host.calib_ms per repetition: {:?}",
        s.calib_ms
            .iter()
            .map(|c| (c * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "fail_frac {} ({} of {} attempted)",
        out.checks.failed as f64 / attempted,
        out.checks.failed,
        out.checks.attempted
    );
    out.put("setup_s", setup, "s");
    out.put("run_s", run, "s");
    out.put("run_2t_s", run_2t, "s");
    out.put("step_p50_ms", p50 * 1e3, "ms");
    out.put("step_tail_ms", tail * 1e3, "ms");
    out.put("peak_rss_mb", rss as f64 / (1 << 20) as f64, "MB");
    out.put(
        "pass_frac",
        1.0 - out.checks.failed as f64 / attempted,
        "ratio",
    );
    Some(out)
}
