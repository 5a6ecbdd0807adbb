//! End-to-end fleet tests against real subprocess workers: bit-identical
//! distribution, multi-source checkpoint merge/resume, and supervision
//! (worker kills, hangs, spawn failures) under fault injection. One
//! in-process fake worker covers the config re-push a real worker only
//! needs when a push goes missing.

use dtn_fleet::protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use dtn_fleet::worker::run_assignment;
use dtn_fleet::{
    run_fleet, run_sweep_fleet, Envelope, FleetError, FleetOptions, SubprocessTransport, Transport,
    WorkerHandle,
};
use dtn_sim::config::{presets, PolicyKind};
use dtn_sim::sweep::{
    load_checkpoint, materialize_jobs, run_sweep_hardened, SweepAxis, SweepCheckpoint,
    SweepOptions, SweepSpec,
};
use dtn_telemetry::{hash_config_json, SweepEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// 2 axis points x 2 policies x 2 seeds = 8 cells, each well under a
/// second — big enough to spread over workers, small enough for CI.
fn quick_spec() -> SweepSpec {
    let mut base = presets::smoke();
    base.duration_secs = 600.0;
    base.n_nodes = 20;
    SweepSpec {
        base,
        axis: SweepAxis::InitialCopies(vec![8, 16]),
        policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
        seeds: vec![1, 2],
        validate: false,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dtn-fleet-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dtn-fleet-worker"))
}

fn job_hashes(spec: &SweepSpec) -> Vec<String> {
    materialize_jobs(spec)
        .iter()
        .map(|j| hash_config_json(&serde_json::to_string(&j.cfg).expect("config serialises")))
        .collect()
}

#[test]
fn subprocess_fleet_matches_single_process_bit_identically() {
    let spec = quick_spec();
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    assert!(reference.errors.is_empty());

    let transport = SubprocessTransport::new(worker_bin());
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");

    assert!(out.errors.is_empty());
    assert_eq!(out.executed, 8);
    assert_eq!(
        out.runs, reference.runs,
        "per-run records (fingerprints included)"
    );
    assert_eq!(out.cells, reference.cells, "aggregated cells");
    assert_eq!(out.totals, reference.totals, "event totals");
    assert_eq!(stats.transport, "subprocess");
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.dispatched, 8);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.workers_lost, 0);
    assert!(stats.per_worker.iter().all(|w| w.pid != 0));
    assert_eq!(
        stats
            .per_worker
            .iter()
            .map(|w| w.cells_completed)
            .sum::<usize>(),
        8
    );
}

#[test]
fn fleet_resume_merges_main_and_shard_checkpoints_bit_identically() {
    let spec = quick_spec();
    let ck_full = temp_path("ref-full");
    let reference = run_sweep_hardened(
        &spec,
        &SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: ck_full.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    );
    assert!(reference.errors.is_empty());
    let body = std::fs::read_to_string(&ck_full).expect("reference checkpoint");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 8);

    // Reconstruct the wreckage a killed 2-worker fleet leaves behind:
    // a main checkpoint with two cells and a torn third line, one shard
    // holding two more cells, and a second shard with one cell plus a
    // torn tail of another. 5 distinct whole cells survive.
    let ck = temp_path("fleet-merge");
    let mut main_body = lines[..2].join("\n");
    main_body.push('\n');
    main_body.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&ck, &main_body).expect("write main checkpoint");
    let shard0 = dtn_fleet::shard_path(&ck, 0);
    std::fs::write(&shard0, format!("{}\n{}\n", lines[2], lines[3])).expect("write shard 0");
    let shard1 = dtn_fleet::shard_path(&ck, 1);
    std::fs::write(
        &shard1,
        format!("{}\n{}", lines[4], &lines[5][..lines[5].len() / 2]),
    )
    .expect("write shard 1");

    let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| events.lock().push(ev.kind().to_string());
    let transport = SubprocessTransport {
        checkpoint: Some(ck.clone()),
        ..SubprocessTransport::new(worker_bin())
    };
    let (out, _stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            checkpoint: Some(SweepCheckpoint {
                path: ck.clone(),
                resume: true,
            }),
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("fleet resumes");

    assert!(out.errors.is_empty());
    assert_eq!(
        out.resumed, 5,
        "main(2) + shard0(2) + shard1(1), torn tails dropped"
    );
    assert_eq!(out.executed, 3);
    assert_eq!(
        out.runs, reference.runs,
        "bit-identical to uninterrupted run"
    );
    assert_eq!(out.cells, reference.cells);
    assert_eq!(out.totals, reference.totals);
    let kinds = events.lock();
    assert_eq!(kinds.iter().filter(|k| *k == "cell_skipped").count(), 5);
    assert!(kinds.iter().any(|k| k == "checkpoint_resumed"));

    // Shards were consumed into the main checkpoint and removed; the
    // main file is whole again (a further resume executes nothing).
    assert!(!shard0.exists(), "consumed shard removed");
    assert!(!shard1.exists(), "consumed shard removed");
    assert!(dtn_fleet::discover_shards(&ck).is_empty());
    assert_eq!(load_checkpoint(&ck).len(), 8);
    let restored = run_sweep_hardened(
        &spec,
        &SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: ck.clone(),
                resume: true,
            }),
            ..SweepOptions::default()
        },
    );
    assert_eq!(restored.executed, 0);
    assert_eq!(restored.resumed, 8);
    assert_eq!(restored.runs, reference.runs);

    for path in [ck_full, ck] {
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn worker_killed_mid_cell_is_retried_to_completion() {
    let spec = quick_spec();
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[3].clone();
    let marker = temp_path("fail-once-marker");

    let events: Mutex<Vec<SweepEvent>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| events.lock().push(ev.clone());
    let transport = SubprocessTransport {
        extra_args: vec![
            "--fail-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
        ..SubprocessTransport::new(worker_bin())
    };
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("fleet survives the kill");

    // The sweep completed — the killed worker's cell was re-dispatched
    // and the output is still bit-identical to the reference.
    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs);
    assert_eq!(out.cells, reference.cells);
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.retries >= 1);
    assert!(stats.worker_restarts >= 1);
    assert!(stats.dispatched > 8, "the victim cell was dispatched twice");

    let kinds = events.lock();
    assert!(
        kinds
            .iter()
            .any(|ev| matches!(ev, SweepEvent::WorkerLost { .. })),
        "worker loss recorded in telemetry"
    );
    assert!(
        kinds.iter().any(|ev| matches!(
            ev,
            SweepEvent::CellDispatched { config_hash, retry, .. }
                if *config_hash == victim && *retry > 0
        )),
        "victim cell re-dispatched"
    );
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn hung_worker_blows_cell_timeout_and_cell_is_retried() {
    let mut spec = quick_spec();
    // 1 axis point x 2 policies x 1 seed = 2 cells keeps the (real)
    // timeout wait short.
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1];
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[0].clone();
    let marker = temp_path("hang-once-marker");

    let transport = SubprocessTransport {
        extra_args: vec![
            "--hang-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
        ..SubprocessTransport::new(worker_bin())
    };
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 1,
            cell_timeout_secs: 2.0,
            ..FleetOptions::default()
        },
    )
    .expect("fleet recovers from the hang");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs);
    assert!(stats.workers_lost >= 1);
    assert!(stats.retries >= 1);
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn unspawnable_workers_fail_the_fleet_not_hang_it() {
    let spec = quick_spec();
    let transport = SubprocessTransport::new(PathBuf::from("/no/such/worker-bin"));
    let err = run_sweep_fleet(&spec, &transport, &FleetOptions::default())
        .expect_err("no worker can spawn");
    assert!(err.message.contains("no worker could be spawned"), "{err}");
}

#[test]
fn dying_workers_exhaust_budgets_into_structured_cell_errors() {
    // A "worker" that exits immediately without speaking the protocol:
    // every spawn is lost, budgets run out, and the sweep degrades to
    // per-cell errors instead of hanging or aborting.
    let bin = PathBuf::from("/bin/false");
    if !bin.is_file() {
        return; // exotic platform; the test is linux-oriented
    }
    let mut spec = quick_spec();
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1]; // 2 cells
    let transport = SubprocessTransport::new(bin);
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 1,
            max_cell_retries: 1,
            max_worker_restarts: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet degrades gracefully");
    assert_eq!(out.errors.len(), 2, "every cell failed structurally");
    assert!(out.runs.iter().all(|r| r.is_none()));
    assert!(out
        .errors
        .iter()
        .all(|e| e.panic.contains("worker lost") || e.panic.contains("stranded")));
    assert!(stats.workers_lost >= 1);
}

#[test]
fn run_fleet_accepts_arbitrary_job_lists() {
    // The fuzz-style entry point: a raw job list, no SweepSpec.
    use dtn_sim::sweep::{run_cells, CellJob};
    let mut cfg = presets::smoke();
    cfg.duration_secs = 300.0;
    cfg.n_nodes = 12;
    let jobs: Vec<CellJob> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            CellJob {
                label: format!("fuzz-{seed}"),
                policy: cfg.policy.label().to_string(),
                cfg,
            }
        })
        .collect();
    let reference = run_cells(jobs.clone(), &SweepOptions::default());
    let fleet = run_fleet(
        &jobs,
        &SubprocessTransport::new(worker_bin()),
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");
    assert!(fleet.output.errors.is_empty());
    assert_eq!(fleet.output.runs, reference.runs);
    assert_eq!(fleet.output.totals, reference.totals);
}

#[test]
fn resumed_checkpoint_records_identically_through_run_cells_and_run_fleet() {
    // Both executors record into the same `CellLedger`: restoring the
    // same torn checkpoint must give equal outputs, the same ledger
    // events and the same repaired checkpoint file.
    use dtn_sim::sweep::run_cells;
    let spec = quick_spec();
    let jobs = materialize_jobs(&spec);
    let ck_full = temp_path("ledger-full");
    let full = run_cells(
        jobs.clone(),
        &SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: ck_full.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    );
    assert!(full.errors.is_empty());
    let body = std::fs::read_to_string(&ck_full).expect("full checkpoint");
    let lines: Vec<&str> = body.lines().collect();
    let torn = format!(
        "{}\n{}",
        lines[..3].join("\n"),
        &lines[3][..lines[3].len() / 2]
    );
    let resume = |path: &PathBuf| {
        std::fs::write(path, &torn).expect("write torn checkpoint");
        Some(SweepCheckpoint {
            path: path.clone(),
            resume: true,
        })
    };

    let local_kinds: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let record_local = |ev: &SweepEvent| local_kinds.lock().push(ev.kind());
    let ck_local = temp_path("ledger-local");
    let local = run_cells(
        jobs.clone(),
        &SweepOptions {
            threads: 2,
            checkpoint: resume(&ck_local),
            events: Some(&record_local),
            ..SweepOptions::default()
        },
    );

    let fleet_kinds: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let record_fleet = |ev: &SweepEvent| fleet_kinds.lock().push(ev.kind());
    let ck_fleet = temp_path("ledger-fleet");
    let fleet = run_fleet(
        &jobs,
        &SubprocessTransport {
            checkpoint: Some(ck_fleet.clone()),
            ..SubprocessTransport::new(worker_bin())
        },
        &FleetOptions {
            workers: 2,
            checkpoint: resume(&ck_fleet),
            events: Some(&record_fleet),
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");

    assert_eq!(local.resumed, 3, "torn fourth line dropped");
    assert_eq!(local.executed, 5);
    assert_eq!(fleet.output, local, "equal CellsOutput");
    assert_eq!(local.runs, full.runs, "bit-identical to uninterrupted");

    // Supervision events are the fleet's own; everything the ledger
    // emits must match kind for kind.
    let ledger_kinds = |kinds: &Mutex<Vec<&'static str>>| {
        let mut kinds: Vec<&'static str> = kinds
            .lock()
            .iter()
            .copied()
            .filter(|k| !matches!(*k, "worker_spawned" | "worker_lost" | "cell_dispatched"))
            .collect();
        kinds.sort_unstable();
        kinds
    };
    let local_sorted = ledger_kinds(&local_kinds);
    assert_eq!(local_sorted, ledger_kinds(&fleet_kinds));
    let count = |kind: &str| local_sorted.iter().filter(|k| **k == kind).count();
    assert_eq!(count("cell_skipped"), 3);
    assert_eq!(count("checkpoint_resumed"), 1);
    assert_eq!(count("cell_completed"), 5);
    assert_eq!(local_sorted.len(), 9);

    assert_eq!(load_checkpoint(&ck_local), load_checkpoint(&ck_fleet));
    assert_eq!(load_checkpoint(&ck_local).len(), 8);
    for path in [ck_full, ck_local, ck_fleet] {
        let _ = std::fs::remove_file(&path);
    }
}

/// An in-process worker behind the coordinator's [`Transport`] seam. Its
/// thread answers every `Assign` through [`run_assignment`], the runner
/// the real worker uses, but NACKs its first `Assign` with
/// `ConfigMissing`, as if the config push had been lost.
#[derive(Default)]
struct NackFirstAssign {
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Coordinator-side end of a [`NackFirstAssign`] worker: an mpsc sender
/// into the worker thread. Dropping it ends the thread.
struct ChannelHandle(Option<Sender<CoordinatorMsg>>);

impl WorkerHandle for ChannelHandle {
    fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError> {
        let tx = self.0.as_ref().ok_or_else(|| FleetError::new("killed"))?;
        tx.send(msg.clone())
            .map_err(|_| FleetError::new("worker thread gone"))
    }
    fn pid(&self) -> u64 {
        0
    }
    fn kill(&mut self) {
        self.0 = None;
    }
}

impl Transport for NackFirstAssign {
    fn spawn(
        &self,
        uid: u64,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<Box<dyn WorkerHandle>, FleetError> {
        let (tx, rx) = channel::<CoordinatorMsg>();
        let thread = std::thread::spawn(move || {
            let reply = |msg: WorkerMsg| {
                let _ = inbox.send((uid, Envelope::Msg(msg)));
            };
            reply(WorkerMsg::Hello {
                pid: 0,
                protocol: PROTOCOL_VERSION,
            });
            let mut configs = HashMap::new();
            let mut nacked = false;
            for msg in rx {
                match msg {
                    CoordinatorMsg::Config {
                        config_hash,
                        config,
                    } => {
                        configs.insert(config_hash, config);
                    }
                    CoordinatorMsg::Assign {
                        index,
                        config_hash,
                        validate,
                        ..
                    } => {
                        if !nacked {
                            // Pretend the push never arrived: drop it and NACK.
                            nacked = true;
                            configs.remove(&config_hash);
                            reply(WorkerMsg::ConfigMissing { index, config_hash });
                            continue;
                        }
                        let config = configs.remove(&config_hash).expect("config was re-pushed");
                        reply(run_assignment(index, &config_hash, &config, validate));
                    }
                    CoordinatorMsg::Shutdown => break,
                }
            }
        });
        self.threads.lock().push(thread);
        Ok(Box::new(ChannelHandle(Some(tx))))
    }

    fn label(&self) -> &'static str {
        "in-process"
    }
}

/// A worker that NACKs its first assignment makes the coordinator
/// re-push the config and re-assign the cell: the sweep is still
/// bit-identical, with exactly one extra push and no worker lost.
#[test]
fn config_missing_nack_triggers_re_push() {
    let mut spec = quick_spec();
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1]; // 2 cells
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());

    let transport = NackFirstAssign::default();
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 1,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");
    for thread in transport.threads.lock().drain(..) {
        thread.join().expect("fake worker thread panicked");
    }

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs, "bit-identical despite the NACK");
    assert_eq!(
        stats.config_pushes, 3,
        "2 first-sight pushes + 1 NACK re-push"
    );
    assert_eq!(stats.workers_lost, 0, "a NACK is not a worker loss");
}
