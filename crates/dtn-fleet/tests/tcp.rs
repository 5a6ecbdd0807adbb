//! End-to-end tests of the TCP transport against real
//! `dtn-fleet-worker --connect` processes on loopback: fingerprint
//! parity with the in-process reference, worker-loss retry over a
//! dropped socket, handshake rejection, config-push NACK recovery,
//! late joiners, and torn-checkpoint resume.

use dtn_fleet::protocol::{read_frame, write_frame, CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use dtn_fleet::worker::run_assignment;
use dtn_fleet::{run_sweep_fleet, FleetOptions, LocalTcpWorkers, TcpTransport, Transport};
use dtn_sim::config::{presets, PolicyKind};
use dtn_sim::sweep::{
    load_checkpoint, materialize_jobs, run_sweep_hardened, SweepAxis, SweepCheckpoint,
    SweepOptions, SweepSpec,
};
use dtn_telemetry::{hash_config_json, SweepEvent};
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;

/// Same 8-cell grid as the subprocess suite: 2 axis points x 2
/// policies x 2 seeds, each cell well under a second.
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
    let path =
        std::env::temp_dir().join(format!("dtn-fleet-tcp-{}-{name}.jsonl", std::process::id()));
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
fn tcp_fleet_matches_in_process_reference_bit_identically() {
    let spec = quick_spec();
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    assert!(reference.errors.is_empty());

    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("bind")
        .with_token(Some("parity".into()));
    let _workers = LocalTcpWorkers::spawn(
        &worker_bin(),
        transport.local_addr(),
        2,
        Some("parity"),
        None,
        &[],
    )
    .expect("workers launch");
    transport.expect_workers(2);
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("tcp fleet runs");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.executed, 8);
    assert_eq!(out.runs, reference.runs, "bit-identical to in-process");
    assert_eq!(out.cells, reference.cells);
    assert_eq!(out.totals, reference.totals);
    assert_eq!(stats.transport, "tcp");
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.dispatched, 8);
    assert_eq!(
        stats.config_pushes, 8,
        "each cell's config streamed exactly once"
    );
    assert_eq!(stats.retries, 0);
    assert!(stats.per_worker.iter().all(|w| w.pid != 0));
}

#[test]
fn worker_socket_killed_mid_cell_is_retried_to_completion() {
    let spec = quick_spec();
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[3].clone();
    let marker = temp_path("tcp-fail-marker");

    let events: Mutex<Vec<SweepEvent>> = Mutex::new(Vec::new());
    let record = |ev: &SweepEvent| events.lock().push(ev.clone());
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    // Both workers carry the hook; the shared marker latch makes
    // exactly one of them die (socket drops mid-cell, exit 17).
    let _workers = LocalTcpWorkers::spawn(
        &worker_bin(),
        transport.local_addr(),
        2,
        None,
        None,
        &[
            "--fail-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
    )
    .expect("workers launch");
    transport.expect_workers(2);
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            events: Some(&record),
            ..FleetOptions::default()
        },
    )
    .expect("fleet survives the dropped socket");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs, "still bit-identical");
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.retries >= 1, "the dropped cell was re-dispatched");
    let kinds = events.lock();
    assert!(kinds
        .iter()
        .any(|ev| matches!(ev, SweepEvent::WorkerLost { .. })));
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
fn late_joining_worker_revives_a_dead_slot() {
    let spec = quick_spec();
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());
    let victim = job_hashes(&spec)[3].clone();
    let marker = temp_path("late-join-marker");

    // Three workers dial in but only two slots exist, so one stays
    // parked in the authenticated ready queue. When a slot's worker
    // dies mid-cell (--fail-once), the respawn path must adopt the
    // parked joiner instead of declaring the slot dead.
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    let _pair = LocalTcpWorkers::spawn(
        &worker_bin(),
        addr,
        2,
        None,
        None,
        &[
            "--fail-once".into(),
            format!("{victim}:{}", marker.display()),
        ],
    )
    .expect("initial workers");
    // Both --fail-once workers must be authenticated (and thus first in
    // the ready queue) before the spare dials in, or the spare can grab
    // a slot and the victim cell runs on a worker that never fails.
    for _ in 0..500 {
        if transport.waiting_workers() >= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(transport.waiting_workers(), 2, "initial pair authenticated");
    let _spare =
        LocalTcpWorkers::spawn(&worker_bin(), addr, 1, None, None, &[]).expect("spare worker");
    transport.expect_workers(2);

    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs, "bit-identical despite the churn");
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(
        stats.worker_restarts >= 1,
        "a waiting joiner revived the dead slot: {stats:?}"
    );
    let _ = std::fs::remove_file(&marker);
}

#[test]
fn wrong_token_worker_is_rejected_and_exits_3() {
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("bind")
        .with_token(Some("right".into()));
    let status = std::process::Command::new(worker_bin())
        .args([
            "--connect",
            &transport.local_addr().to_string(),
            "--token",
            "wrong",
            "--connect-wait",
            "5",
        ])
        .status()
        .expect("worker runs");
    assert_eq!(status.code(), Some(3), "rejected handshake exit code");
    assert_eq!(transport.rejected_handshakes(), 1);
}

/// A hand-rolled protocol client that NACKs its first assignment with
/// `ConfigMissing` (as if its cache were cold) and then behaves: the
/// coordinator must re-push the config and the sweep must still be
/// bit-identical, with exactly one extra push in the stats.
#[test]
fn config_missing_nack_triggers_re_push() {
    let mut spec = quick_spec();
    spec.axis = SweepAxis::InitialCopies(vec![8]);
    spec.seeds = vec![1]; // 2 cells keeps the hand-rolled loop simple
    let reference = run_sweep_hardened(&spec, &SweepOptions::default());

    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        write_frame(
            &mut writer,
            &WorkerMsg::Hello {
                pid: 1,
                protocol: PROTOCOL_VERSION,
                token: None,
            }
            .to_line(),
        )
        .expect("hello");
        let mut configs = std::collections::HashMap::new();
        let mut nacked = false;
        while let Ok(Some(line)) = read_frame(&mut reader) {
            match serde_json::from_str::<CoordinatorMsg>(&line).expect("frame parses") {
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
                        write_frame(
                            &mut writer,
                            &WorkerMsg::ConfigMissing { index, config_hash }.to_line(),
                        )
                        .expect("nack");
                        continue;
                    }
                    let config = configs.remove(&config_hash).expect("config was re-pushed");
                    let reply = run_assignment(index, &config_hash, &config, validate);
                    write_frame(&mut writer, &reply.to_line()).expect("reply");
                }
                CoordinatorMsg::Shutdown | CoordinatorMsg::Reject { .. } => break,
            }
        }
    });

    transport.expect_workers(1);
    let (out, stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 1,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");
    client.join().expect("client thread");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.runs, reference.runs, "bit-identical despite the NACK");
    assert_eq!(
        stats.config_pushes, 3,
        "2 first-sight pushes + 1 NACK re-push"
    );
    assert_eq!(stats.workers_lost, 0, "a NACK is not a worker loss");
}

#[test]
fn tcp_fleet_resumes_torn_main_and_shard_checkpoints_bit_identically() {
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

    // The wreckage of a fleet killed over TCP: torn main checkpoint
    // plus two worker-side shards (one with a torn tail). 5 whole
    // cells survive.
    let ck = temp_path("tcp-merge");
    let mut main_body = lines[..2].join("\n");
    main_body.push('\n');
    main_body.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&ck, &main_body).expect("write main checkpoint");
    let shard0 = dtn_fleet::shard_path(&ck, 9000);
    std::fs::write(&shard0, format!("{}\n{}\n", lines[2], lines[3])).expect("write shard 0");
    let shard1 = dtn_fleet::shard_path(&ck, 9001);
    std::fs::write(
        &shard1,
        format!("{}\n{}", lines[4], &lines[5][..lines[5].len() / 2]),
    )
    .expect("write shard 1");

    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let _workers = LocalTcpWorkers::spawn(
        &worker_bin(),
        transport.local_addr(),
        2,
        None,
        Some(&ck),
        &[],
    )
    .expect("workers launch");
    transport.expect_workers(2);
    let (out, _stats) = run_sweep_fleet(
        &spec,
        &transport,
        &FleetOptions {
            workers: 2,
            checkpoint: Some(SweepCheckpoint {
                path: ck.clone(),
                resume: true,
            }),
            ..FleetOptions::default()
        },
    )
    .expect("tcp fleet resumes");

    assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
    assert_eq!(out.resumed, 5, "main(2) + shard0(2) + shard1(1)");
    assert_eq!(out.executed, 3);
    assert_eq!(out.runs, reference.runs, "bit-identical to uninterrupted");
    assert_eq!(out.totals, reference.totals);
    assert!(!shard0.exists(), "consumed shard removed");
    assert!(!shard1.exists(), "consumed shard removed");
    assert!(dtn_fleet::discover_shards(&ck).is_empty());
    assert_eq!(load_checkpoint(&ck).len(), 8);

    for path in [ck_full, ck] {
        let _ = std::fs::remove_file(&path);
    }
}
