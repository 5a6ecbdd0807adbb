//! The coordinator/worker wire protocol.
//!
//! Messages are externally-tagged serde enums, one JSON value per
//! frame. Frames are length-prefixed: each is
//! `<decimal byte length>\n<json>\n` (see [`write_frame`] /
//! [`read_frame`]).
//!
//! * A well-framed message of an unknown kind is skipped by both sides,
//!   so the protocol can grow message kinds without flag-day upgrades.
//! * A framing violation is a broken stream (worker loss), not skipped:
//!   a peer that cannot frame correctly cannot be trusted to
//!   resynchronise.
//!
//! [`PROTOCOL_VERSION`] in the worker's `Hello` guards against
//! genuinely incompatible pairings: the coordinator tears down a worker
//! that speaks another version.
//!
//! Since protocol v2 an [`CoordinatorMsg::Assign`] carries only the
//! cell's canonical config *hash*; the config body streams once per
//! worker in a [`CoordinatorMsg::Config`] frame and is re-pushed on a
//! [`WorkerMsg::ConfigMissing`] NACK.

use std::io::{BufRead, Write};

use dtn_sim::sweep::CellRun;
use serde::{Deserialize, Serialize};

/// Version tag carried in [`WorkerMsg::Hello`]. Bump on breaking frame
/// changes; the coordinator refuses workers that disagree.
///
/// v2: `Assign` dropped the inline `config` body (config-push by
/// hash), `Hello` gained the optional auth `token`.
/// v3: `Hello` lost the `token` and the coordinator's `Reject` is gone
/// (both served only the retired network transport).
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a single frame's payload, enforced by
/// [`read_frame`]. Generous — the largest real frame is a `Config`
/// push or a `Done` with a full fingerprint, both well under a
/// megabyte — while still refusing absurd lengths from a corrupt or
/// hostile peer before allocating.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordinatorMsg {
    /// Stream a cell config body to the worker, keyed by its canonical
    /// hash. Sent once per `(worker incarnation, config_hash)` before
    /// the first `Assign` that references the hash, and again whenever
    /// the worker NACKs with [`WorkerMsg::ConfigMissing`].
    Config {
        /// FNV-1a hash of `config` — the cache key.
        config_hash: String,
        /// Canonical config JSON of the cell.
        config: String,
    },
    /// Run one cell. Since protocol v2 this carries only the config
    /// *hash*; the body arrives separately via `Config` so retries and
    /// repeat assignments do not re-send multi-kilobyte configs.
    Assign {
        /// Position in the materialised job list.
        index: usize,
        /// Axis label (sweeps) or scenario name (fuzzing).
        label: String,
        /// Policy legend label.
        policy: String,
        /// RNG seed of the run.
        seed: u64,
        /// FNV-1a hash of the canonical config JSON — the cell
        /// identity and resume key.
        config_hash: String,
        /// Attach a `dtn-validate` validator to the run.
        validate: bool,
        /// Dispatch attempt number (0 on first dispatch).
        retry: u32,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Worker → coordinator messages.
// `Done` dwarfs the liveness variants, but boxing `CellRun` would put
// an indirection on every result frame to save bytes on heartbeats that
// exist for microseconds — not worth it on this traffic volume.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// First frame after spawn: liveness + version handshake.
    Hello {
        /// OS process id (0 for in-process transports).
        pid: u64,
        /// [`PROTOCOL_VERSION`] the worker speaks.
        protocol: u32,
    },
    /// Periodic liveness signal, emitted from a side thread so it keeps
    /// flowing while a cell executes.
    Heartbeat {
        /// Whether a cell is currently executing.
        busy: bool,
    },
    /// An assignment was received and execution is starting.
    Started {
        /// Job index of the assignment.
        index: usize,
        /// Config hash of the assignment.
        config_hash: String,
    },
    /// NACK: an `Assign` referenced a config hash this worker has no
    /// body for. The coordinator answers with `Config` + a fresh
    /// `Assign` for the same cell.
    ConfigMissing {
        /// Job index of the assignment being NACKed.
        index: usize,
        /// The config hash the worker could not resolve.
        config_hash: String,
    },
    /// A cell finished; `run` is the exact checkpoint record.
    Done {
        /// The finished cell, bit-identical to what an in-process
        /// runner would record.
        run: CellRun,
    },
    /// A cell panicked inside the worker (the worker itself survives
    /// and can take further assignments).
    Failed {
        /// Job index of the failed cell.
        index: usize,
        /// Config hash of the failed cell.
        config_hash: String,
        /// The panic payload, stringified.
        panic: String,
    },
}

impl WorkerMsg {
    /// The JSON payload of one frame (a single line, no newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("worker message serialises")
    }
}

impl CoordinatorMsg {
    /// The JSON payload of one frame (a single line, no newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("coordinator message serialises")
    }
}

/// Write one length-prefixed frame: `<decimal len>\n<payload>\n`.
///
/// The payload is one JSON line (no trailing newline); the length
/// counts payload bytes only. Flushes, so a frame is on the wire when
/// this returns.
pub fn write_frame<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    w.write_all(line.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Read one length-prefixed frame written by [`write_frame`].
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. Anything
/// malformed — a non-numeric length, a length above [`MAX_FRAME_LEN`],
/// truncation mid-frame, a missing `\n` terminator, or invalid UTF-8 —
/// is an [`std::io::ErrorKind::InvalidData`] error: the stream is
/// broken, not a line to skip.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None); // clean EOF between frames
    }
    let len: usize = header
        .trim_end_matches('\n')
        .trim_end_matches('\r')
        .parse()
        .map_err(|_| bad_frame(format!("invalid frame length {header:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_frame(format!(
            "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload)
        .map_err(|e| bad_frame(format!("truncated frame ({len} bytes expected): {e}")))?;
    if payload.pop() != Some(b'\n') {
        return Err(bad_frame("frame missing trailing newline".into()));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad_frame("frame payload is not UTF-8".into()))
}

fn bad_frame(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::sweep::CellMetrics;
    use dtn_validate::ReportFingerprint;

    #[test]
    fn assign_round_trips_through_ndjson() {
        let msg = CoordinatorMsg::Assign {
            index: 7,
            label: "16".into(),
            policy: "SDSRP".into(),
            seed: 42,
            config_hash: "deadbeefdeadbeef".into(),
            validate: true,
            retry: 1,
        };
        let line = msg.to_line();
        assert!(!line.contains('\n'), "frames must be single lines");
        let back: CoordinatorMsg = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, msg);
    }

    #[test]
    fn config_push_round_trips() {
        let msg = CoordinatorMsg::Config {
            config_hash: "deadbeefdeadbeef".into(),
            config: "{\"name\":\"smoke\"}".into(),
        };
        let back: CoordinatorMsg = serde_json::from_str(&msg.to_line()).expect("parse");
        assert_eq!(back, msg);
    }

    #[test]
    fn config_missing_round_trips() {
        let nack = WorkerMsg::ConfigMissing {
            index: 4,
            config_hash: "ff00".into(),
        };
        let back: WorkerMsg = serde_json::from_str(&nack.to_line()).expect("parse");
        assert_eq!(back, nack);
    }

    #[test]
    fn done_round_trips_with_exact_floats() {
        let run = CellRun {
            index: 3,
            config_hash: "0123456789abcdef".into(),
            seed: 9,
            metrics: CellMetrics {
                delivery_ratio: 0.1 + 0.2, // deliberately non-representable
                avg_hopcount: 2.25,
                overhead_ratio: 13.5,
                avg_latency: Some(1234.0625),
                created: 96.0,
            },
            fingerprint: ReportFingerprint::default(),
            violations: 0,
            duration_secs: 1.5,
        };
        let line = WorkerMsg::Done { run: run.clone() }.to_line();
        let back: WorkerMsg = serde_json::from_str(&line).expect("parse");
        match back {
            WorkerMsg::Done { run: r } => {
                assert_eq!(r, run);
                // Equality excludes duration; check it explicitly.
                assert_eq!(r.duration_secs, 1.5);
                // Bit-exact float round trip, not just approximate.
                assert_eq!(r.metrics.delivery_ratio.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn unknown_variants_are_rejected_not_misparsed() {
        assert!(serde_json::from_str::<WorkerMsg>("{\"Evolved\":{\"x\":1}}").is_err());
        assert!(serde_json::from_str::<CoordinatorMsg>("garbage").is_err());
    }

    #[test]
    fn shutdown_is_a_bare_tag() {
        let line = CoordinatorMsg::Shutdown.to_line();
        let back: CoordinatorMsg = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, CoordinatorMsg::Shutdown);
    }

    #[test]
    fn frames_round_trip_through_length_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "línea").unwrap(); // multi-byte UTF-8
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("línea"));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn malformed_frames_are_errors_not_skips() {
        for wire in [
            "not-a-number\n{}\n",   // garbage length
            "5\nab\n",              // truncated payload
            "2\nabX",               // wrong terminator
            "999999999999999999\n", // absurd length
        ] {
            let mut r = std::io::Cursor::new(wire.as_bytes().to_vec());
            let err = read_frame(&mut r).expect_err(wire);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{wire}");
        }
    }
}
