//! Workload inputs and the calls into the simulator that every run
//! shares: building configs from the seed, stepping a world one tick
//! window at a time, the golden output check and the host calibration
//! loop.

use crate::probe::{PolicyStats, TimedPolicy};
use dtn_buffer::policy::PriorityCacheStats;
use dtn_core::time::{SimDuration, SimTime};
use dtn_sim::config::{presets, PolicyKind, ScenarioConfig};
use dtn_sim::replay::fingerprint;
use dtn_sim::sweep::{SweepAxis, SweepSpec};
use dtn_sim::World;
use dtn_telemetry::Recorder;
use dtn_validate::ReportFingerprint;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads. Why each was chosen is in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II random waypoint, SDSRP, one world.
    PaperRwp,
    /// `scenarios/urban_100k.json`, one world, at 1 and 2 world threads.
    Urban100k,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-rwp" => Some(Workload::PaperRwp),
            "urban-100k" => Some(Workload::Urban100k),
            _ => None,
        }
    }
}

/// The seeds of the `n` inputs one plain run covers: `seed` itself
/// first. Runs at different seeds cover disjoint inputs unless the seeds
/// differ by a multiple of the stride.
pub fn input_seeds(seed: u64, n: u64) -> Vec<u64> {
    const STRIDE: u64 = 1_000_003;
    (0..n).map(|k| seed.wrapping_add(k * STRIDE)).collect()
}

/// The Table II preset (100 nodes, RWP, 18 000 s, SDSRP) at `seed`.
pub fn paper_rwp(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        ..presets::random_waypoint_paper()
    }
}

/// The committed 100k-node scenario at `seed`.
pub fn urban_100k(root: &Path, seed: u64) -> Result<ScenarioConfig, String> {
    let path = root.join("scenarios/urban_100k.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let cfg: ScenarioConfig =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    Ok(ScenarioConfig { seed, ..cfg })
}

/// Worker threads of the sweep executor in the traced run.
pub const SWEEP_WORKERS: usize = 2;

/// `cfg` swept over the paper's four policies, as `fig8` and `fig9`
/// sweep them. The paper's policy order queues the costly SDSRP cell
/// last, so the executor's tail shows.
pub fn paper_four_sweep(cfg: &ScenarioConfig) -> SweepSpec {
    SweepSpec {
        base: cfg.clone(),
        axis: SweepAxis::InitialCopies(vec![cfg.initial_copies]),
        policies: PolicyKind::paper_four().to_vec(),
        seeds: vec![cfg.seed],
        validate: false,
    }
}

/// Tick instants of a run, computed exactly as the world reschedules
/// its tick event: first at 0, then `now + tick` while within the
/// duration.
pub fn tick_times(cfg: &ScenarioConfig) -> Vec<SimTime> {
    let step = SimDuration::from_secs(cfg.tick_secs);
    let mut ticks = vec![SimTime::ZERO];
    loop {
        let next = *ticks.last().expect("non-empty") + step;
        if next.as_secs() > cfg.duration_secs {
            return ticks;
        }
        ticks.push(next);
    }
}

/// A world built for measurement, with the counting-only recorder the
/// sweep executor also attaches (its totals feed the fingerprint). With
/// `probe`, every node's policy is wrapped in a [`TimedPolicy`] that
/// counts into it.
pub fn build_world(
    cfg: &ScenarioConfig,
    threads: usize,
    probe: Option<&Arc<PolicyStats>>,
) -> World {
    let mut w = match probe {
        None => World::build(cfg),
        Some(stats) => {
            let (n, seed, kind) = (cfg.n_nodes, cfg.seed, cfg.policy);
            World::build_with_policies(cfg, &mut |id| {
                Box::new(TimedPolicy::new(kind.build(id, n, seed), stats.clone()))
            })
        }
    };
    w.set_threads(threads);
    w.attach_recorder(Recorder::enabled(0));
    w
}

/// One world run, stepped one tick window at a time.
pub struct Stepped {
    /// Host seconds of every `step_until` window; the last window runs
    /// from the final tick to the end of the scenario.
    pub windows: Vec<f64>,
    /// Events the world processed.
    pub events: u64,
    /// Mean of `live_contacts()` after each tick window (0 unless
    /// sampled).
    pub live_links_mean: f64,
    /// Mean total of buffered copies after each tick window (0 unless
    /// sampled).
    pub buffered_copies_mean: f64,
    pub priority: PriorityCacheStats,
    pub fingerprint: ReportFingerprint,
}

impl Stepped {
    /// Host seconds to the end of the run.
    pub fn run_s(&self) -> f64 {
        self.windows.iter().sum()
    }
}

/// Steps `world` through every tick of `cfg` and then to its end,
/// timing each `step_until` window. With `sample`, the world's live
/// links and buffered copies are read between windows, outside the
/// timed spans.
pub fn step_world(mut world: World, cfg: &ScenarioConfig, sample: bool) -> Stepped {
    let ticks = tick_times(cfg);
    let mut windows = Vec::with_capacity(ticks.len() + 1);
    let mut events = 0;
    let (mut links, mut copies) = (0.0, 0.0);
    let end = SimTime::from_secs(cfg.duration_secs);
    for &t in ticks.iter().chain(std::iter::once(&end)) {
        let start = Instant::now();
        events += world.step_until(t);
        windows.push(start.elapsed().as_secs_f64());
        if sample {
            links += world.live_contacts() as f64;
            copies += (0..cfg.n_nodes)
                .map(|i| world.buffered_count(dtn_core::ids::NodeId(i as u32)) as f64)
                .sum::<f64>();
        }
    }
    let samples = windows.len() as f64;
    Stepped {
        windows,
        events,
        live_links_mean: links / samples,
        buffered_copies_mean: copies / samples,
        priority: world.priority_cache_stats(),
        fingerprint: fingerprint(world.report(), world.recorder().totals()),
    }
}

/// Runs the headline configuration pinned by
/// `tests/golden/headline_smoke.json` and compares its fingerprint with
/// the committed file, which is only read.
pub fn golden_check(root: &Path) -> Result<(), String> {
    let path = root.join("tests/golden/headline_smoke.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let expected = ReportFingerprint::from_json(&text)?;
    let cfg = ScenarioConfig {
        policy: PolicyKind::Sdsrp,
        seed: 42,
        duration_secs: 3_600.0,
        ..presets::smoke()
    };
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(16));
    let (report, recorder) = world.run_with_recorder();
    let got = fingerprint(&report, recorder.totals());
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "headline fingerprint differs from {}:\n{}",
            path.display(),
            expected.diff(&got).join("\n")
        ))
    }
}

/// A fixed CPU loop, timed in milliseconds: host drift shows here
/// without any change to the program. Reported beside the metrics and
/// never used to scale them.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepped_run_matches_a_plain_run() {
        let cfg = ScenarioConfig {
            duration_secs: 600.5,
            ..presets::smoke()
        };
        let stepped = step_world(build_world(&cfg, 1, None), &cfg, true);
        let (report, rec) = build_world(&cfg, 1, None).run_with_recorder();
        assert_eq!(stepped.fingerprint, fingerprint(&report, rec.totals()));
        // 601 ticks (0..=600) plus the window to 600.5 s.
        assert_eq!(stepped.windows.len(), 602);
        assert!(stepped.live_links_mean > 0.0);
    }

    #[test]
    fn golden_check_passes_on_this_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        golden_check(&root).expect("golden headline reproduces");
    }
}
