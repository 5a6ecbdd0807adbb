//! The SDSRP buffer policy: Algorithm 1 wired into the
//! [`dtn_buffer::BufferPolicy`] trait.
//!
//! Per ranked message the policy:
//!
//! 1. obtains λ (oracle value or the node's online
//!    [`crate::estimator::LambdaEstimator`]),
//! 2. estimates `m_i` from the copy's binary-spray timestamps (Eq. 15) —
//!    or takes the oracle value when the simulator provides one
//!    (global-knowledge ablation),
//! 3. reads `d_i` from the gossiped [`DroppedList`] and forms
//!    `n_i = m_i + 1 - d_i` (Eq. 14),
//! 4. computes `U_i` — the exact Eq. 10 closed form, or the Eq. 13
//!    Taylor truncation when [`PriorityMode::Taylor`] is configured.
//!
//! The same `U_i` drives scheduling (highest first) and dropping (lowest
//! first); reception of messages present in the dropped list is refused.
//!
//! ## Incremental priority maintenance
//!
//! The ranking hooks route through a per-message `UtilityEntry` that
//! separates Eq. 10's inputs by *how they change*:
//!
//! * **Pinned** — copy tokens, spray timestamps, destination, oracle
//!   overrides. Compared exactly on every lookup; any difference forces
//!   a rebuild. (These change rarely: only binary-spray splits and
//!   oracle ablations move them.)
//! * **Event-guarded** — λ and the dropped-list counts `d_i`. The hooks
//!   invalidate surgically: a contact-up that records an intermeeting
//!   sample moves λ and clears everything (λ enters every priority); an
//!   own drop moves `d_i` of one message and evicts that entry; a
//!   gossip import evicts exactly the entries whose `d_i` the adopted
//!   records changed ([`DroppedList::merge_tracking`]); sample-less
//!   contact-ups, contact-downs and adoption-free imports change no
//!   input and leave everything valid.
//! * **Time-derived** — the remaining TTL and the Eq. 15 bucket
//!   estimate of `m_i`. The TTL enters through two final flops per
//!   evaluation (`A_i = (log2 C_i + 1) R_i − correction`), so the entry
//!   caches everything *up to* the TTL. `m_i` only moves when some
//!   spray bucket `floor((now − t_k)/E(I_min))` crosses an integer
//!   boundary; the entry records the earliest such boundary
//!   (`seen_valid_until`, verified against float rounding) and any
//!   evaluation before it finishes from the cached prefixes — the
//!   *incremental* path. The mere passage of time therefore never
//!   invalidates an entry, it only re-runs the two-flop tail.
//!
//! Both the hit path (same instant, value returned verbatim) and the
//! incremental path (new instant, cached prefixes + fresh TTL) return
//! the bit-identical float a full recompute would: the cached prefixes
//! are associated exactly as [`PriorityModel::log_priority`] and
//! friends associate them (see `UtilityEntry::complete`). Runs with
//! the memo on and off produce identical simulations, which
//! `tests/priority_cache_differential.rs` enforces
//! fingerprint-for-fingerprint.

use crate::dropped_list::DroppedList;
use crate::estimator::{estimate_m, estimate_n, LambdaEstimator};
use crate::priority::PriorityModel;
use dtn_buffer::policy::{BufferPolicy, PriorityCacheStats};
use dtn_buffer::view::MessageView;
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where the policy gets its intermeeting rate λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LambdaMode {
    /// A fixed, externally supplied rate (scenario-level oracle; used by
    /// the ablation benches to isolate estimator error).
    Oracle(f64),
    /// Learn online from this node's own contact history, reporting
    /// `prior` until `min_samples` intermeeting samples accumulate.
    Online {
        /// Rate assumed before enough history exists, per second.
        prior: f64,
        /// Number of samples before the estimate is trusted.
        min_samples: u64,
    },
    /// Extension (SDSRP-H): like `Online`, but each message is ranked
    /// with the λ specific to *its destination* (falling back to the
    /// pooled rate until enough per-destination gaps exist). Matters
    /// under heterogeneous mobility (communities, taxi hotspots) where
    /// Eq. 3's single-λ assumption breaks.
    OnlinePerDestination {
        /// Rate assumed before enough history exists, per second.
        prior: f64,
        /// Samples required before a (pooled or per-peer) estimate is
        /// trusted.
        min_samples: u64,
    },
}

/// Which form of the priority the policy evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityMode {
    /// The exact Eq. 10 closed form, evaluated in log space.
    Exact,
    /// The Eq. 13 Taylor truncation — the paper's cheap approximation,
    /// whose accuracy grows with the number of terms (Fig. 4).
    Taylor {
        /// Number of series terms, `>= 1`.
        terms: usize,
    },
}

impl PriorityMode {
    /// Maps the `Option<usize>` encoding (`None` = exact) that the
    /// scenario-file `SdsrpCustom` variant has used since before this
    /// enum existed; kept so on-disk configs and their hashes are
    /// unchanged.
    pub fn from_terms(terms: Option<usize>) -> Self {
        match terms {
            None => PriorityMode::Exact,
            Some(k) => PriorityMode::Taylor { terms: k },
        }
    }

    /// Inverse of [`from_terms`](Self::from_terms).
    pub fn taylor_terms(&self) -> Option<usize> {
        match self {
            PriorityMode::Exact => None,
            PriorityMode::Taylor { terms } => Some(*terms),
        }
    }
}

/// SDSRP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdsrpConfig {
    /// Total nodes `N` in the network (the paper assumes this is known).
    pub n_nodes: usize,
    /// λ source.
    pub lambda: LambdaMode,
    /// Exact Eq. 10 or the Eq. 13 Taylor fast path.
    pub mode: PriorityMode,
    /// Refuse to receive messages present in the dropped list
    /// (paper Section III-C). Disable for ablation.
    pub reject_dropped: bool,
    /// Exchange dropped-list records on contact. Disable for ablation
    /// (then `d_i` only reflects the node's own drops).
    pub gossip: bool,
}

impl SdsrpConfig {
    /// The paper's configuration for a network of `n_nodes`: online λ
    /// estimation, exact closed-form priority, gossip and receive-reject
    /// enabled.
    ///
    /// The λ prior corresponds to E(I) = 2000 s, a mid-range guess for
    /// the paper's scenarios; it only matters for the first few contacts.
    pub fn paper(n_nodes: usize) -> Self {
        SdsrpConfig {
            n_nodes,
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 5,
            },
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }
}

/// Cap on pinned spray timestamps per memo entry. A copy accumulates
/// one timestamp per binary-spray split in its lineage — at most
/// `log2(initial copies)` — so 12 covers initial copy counts up to
/// 4096. Views with longer histories are evaluated without memoising.
const SPRAY_PIN_CAP: usize = 12;

/// Encodes the oracle `(m_i, n_i)` overrides for pinning (0 = absent).
fn oracle_key_of(msg: &MessageView<'_>) -> u64 {
    let encode = |v: Option<u32>| v.map_or(0u64, |x| x as u64 + 1);
    encode(msg.oracle_seen) << 33 | encode(msg.oracle_holders)
}

/// One message's memoised evaluation state: the pinned inputs it was
/// derived from (any difference forces a rebuild), derived prefixes
/// valid for every instant in `[computed_at, seen_valid_until)`, and
/// the finished value at the most recent evaluation instant.
#[derive(Debug, Clone, Copy)]
struct UtilityEntry {
    // Pinned inputs, compared exactly on every lookup.
    copies: u32,
    spray_len: u32,
    spray_bits: [u64; SPRAY_PIN_CAP],
    destination: NodeId,
    oracle_key: u64,
    // Derived prefixes. Valid while the pinned inputs match, no
    // invalidation hook fired, and `now ∈ [computed_at, seen_valid_until)`
    // (the window certifying the Eq. 15 `m_i` buckets are unchanged).
    computed_at: f64,
    seen_valid_until: f64,
    pt_dead: bool,
    /// 0 = exact closed form (pooled or per-destination λ baked into
    /// `base`/`lh`); `k >= 1` = Eq. 13 with `k` terms.
    taylor_terms: usize,
    base: f64,
    lh: f64,
    h_ln: f64,
    lp1: f64,
    correction: f64,
    // Same-instant memo.
    now_bits: u64,
    value: f64,
}

impl UtilityEntry {
    /// Whether every pinned input still matches the view.
    fn matches(&self, msg: &MessageView<'_>) -> bool {
        self.copies == msg.copies
            && self.destination == msg.destination
            && self.oracle_key == oracle_key_of(msg)
            && self.spray_len as usize == msg.spray_times.len()
            && msg
                .spray_times
                .iter()
                .zip(&self.spray_bits)
                .all(|(t, &b)| t.as_secs().to_bits() == b)
    }

    /// Finishes the evaluation for remaining TTL `r` from the cached
    /// prefixes. Bit-identical to the full forms by expression-tree
    /// identity: `base`, `lh` and `h_ln` are the leading partial sums
    /// of [`PriorityModel::log_priority`] / `log_priority_dest` /
    /// `log_priority_taylor`, associated exactly as those functions
    /// associate them, and `(lp1 * r - correction).max(0.0)` is
    /// [`PriorityModel::exposure`] with its copy-dependent parts
    /// precomputed ([`PriorityModel::exposure_parts`]).
    fn complete(&self, r: f64) -> f64 {
        let a = (self.lp1 * r - self.correction).max(0.0);
        if self.pt_dead || a <= 0.0 {
            return f64::NEG_INFINITY;
        }
        match self.taylor_terms {
            0 => self.base + a.ln() - self.lh * a,
            terms => {
                let x = self.lh * a;
                let pr = 1.0 - (-x).exp();
                let mut sum = 0.0;
                let mut pow = 1.0;
                for j in 1..=terms {
                    pow *= pr;
                    sum += pow / j as f64;
                }
                if sum <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                self.base - x + sum.ln() - self.h_ln
            }
        }
    }
}

/// The largest float strictly below `x` (`f64::next_down`, reimplemented
/// for MSRV). Must not be fed NaN.
fn next_down(x: f64) -> f64 {
    debug_assert!(!x.is_nan());
    if x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits - 1)
    } else {
        f64::from_bits(bits + 1)
    }
}

/// The smallest float strictly above `x` (`f64::next_up` for MSRV).
/// Must not be fed NaN.
fn next_up(x: f64) -> f64 {
    debug_assert!(!x.is_nan());
    if x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// First future instant at which the Eq. 15 estimate `m_i` could move:
/// the smallest spray-bucket boundary strictly after `now_s`.
///
/// `estimate_m` is non-decreasing in `now` and depends on time only
/// through the per-spray buckets `floor((now − t_k)/E(I_min))`, so the
/// memoised `seen` — and everything derived from it — is exact for
/// every instant in `[now_s, horizon)`. Each candidate boundary is
/// verified against float rounding in both directions: stepped down
/// while the instant just below it already lands in the new bucket,
/// and stepped up while the candidate itself still lands in the old
/// one (e.g. `100.0 + 1.0 * 0.1` rounds *below* the true `0.1`-bucket
/// boundary). Subtraction, division and floor are all monotone in
/// `now`, so `bucket(next_down(b)) <= exp < bucket(b)` certifies the
/// whole half-open window.
fn seen_horizon(
    spray_times: &[SimTime],
    now_s: f64,
    e_min: f64,
    seen: u32,
    n_nodes: usize,
    oracle: bool,
) -> f64 {
    if oracle {
        // `m_i` is pinned by the oracle key; time cannot move it.
        return f64::INFINITY;
    }
    let cap = (n_nodes.saturating_sub(1)) as u32;
    if seen >= cap || spray_times.is_empty() || !e_min.is_finite() || e_min <= 0.0 {
        // Saturated estimates stay saturated (monotonicity), an empty
        // spray history always estimates 1, and a degenerate E(I_min)
        // pegs the estimate at the cap — none can move with time.
        return f64::INFINITY;
    }
    let bucket = |x: f64, tk: f64| ((x - tk).max(0.0) / e_min).floor().clamp(0.0, 62.0);
    let mut horizon = f64::INFINITY;
    for &t_k in spray_times {
        let tk = t_k.as_secs();
        let exp = bucket(now_s, tk);
        if exp >= 62.0 {
            // Clamped: this spray's bucket can never advance again.
            continue;
        }
        let mut b = tk + (exp + 1.0) * e_min;
        while b > now_s && bucket(next_down(b), tk) > exp {
            b = next_down(b);
        }
        if b <= now_s {
            // No certifiable window at all: expire the entry
            // immediately (every later instant rebuilds).
            return now_s;
        }
        while b.is_finite() && bucket(b, tk) <= exp {
            b = next_up(b);
        }
        horizon = horizon.min(b);
    }
    horizon
}

/// Per-message incremental memo of [`Sdsrp::utility`] evaluations, plus
/// the [`PriorityModel`] shared by every evaluation between λ changes.
///
/// The hot path re-ranks the same `(node, message)` pairs many times —
/// every transfer completion re-arms all idle links of both endpoints,
/// and each re-arm walks both buffers — mostly at *new* instants, since
/// simulated time advances between events. Entries therefore survive
/// the passage of time: a lookup at a fresh instant takes the
/// incremental path (cached prefixes + the two-flop TTL tail) as long
/// as the pinned inputs match and no spray bucket boundary has been
/// crossed. See the module docs for the per-event invalidation rules.
struct UtilityCache {
    enabled: bool,
    entries: HashMap<MessageId, UtilityEntry>,
    model: Option<PriorityModel>,
    hits: u64,
    incremental: u64,
    misses: u64,
    /// Scratch for [`DroppedList::merge_tracking`]'s change reports.
    changed: Vec<MessageId>,
}

impl UtilityCache {
    fn new() -> Self {
        UtilityCache {
            enabled: true,
            entries: HashMap::new(),
            model: None,
            hits: 0,
            incremental: 0,
            misses: 0,
            changed: Vec::new(),
        }
    }

    /// Drops every memoised value (λ or wholesale policy state changed).
    fn invalidate(&mut self) {
        self.entries.clear();
        self.model = None;
    }
}

/// The SDSRP policy state for one node.
pub struct Sdsrp {
    cfg: SdsrpConfig,
    lambda_est: LambdaEstimator,
    dropped: DroppedList,
    cache: UtilityCache,
}

impl Sdsrp {
    /// Creates the policy for `node`.
    ///
    /// # Panics
    /// Panics on nonsensical configuration (fewer than 2 nodes,
    /// non-positive λ, zero Taylor terms).
    pub fn new(node: NodeId, cfg: SdsrpConfig) -> Self {
        assert!(cfg.n_nodes >= 2, "need at least two nodes");
        if let PriorityMode::Taylor { terms } = cfg.mode {
            assert!(terms >= 1, "need at least one Taylor term");
        }
        let lambda_est = match cfg.lambda {
            LambdaMode::Oracle(l) => {
                assert!(l > 0.0 && l.is_finite(), "oracle lambda must be positive");
                // Estimator never consulted in oracle mode, but keep it
                // consistent.
                LambdaEstimator::new(l, u64::MAX)
            }
            LambdaMode::Online { prior, min_samples }
            | LambdaMode::OnlinePerDestination { prior, min_samples } => {
                LambdaEstimator::new(prior, min_samples)
            }
        };
        Sdsrp {
            cfg,
            lambda_est,
            dropped: DroppedList::new(node),
            cache: UtilityCache::new(),
        }
    }

    /// The current (pooled) λ in use.
    pub fn lambda(&self) -> f64 {
        match self.cfg.lambda {
            LambdaMode::Oracle(l) => l,
            LambdaMode::Online { .. } | LambdaMode::OnlinePerDestination { .. } => {
                self.lambda_est.lambda()
            }
        }
    }

    /// The current priority model (λ may drift as the estimator learns).
    pub fn model(&self) -> PriorityModel {
        PriorityModel::new(self.cfg.n_nodes, self.lambda())
    }

    /// Access to the dropped list (tests/diagnostics).
    pub fn dropped_list(&self) -> &DroppedList {
        &self.dropped
    }

    /// Computes the message's ranking value — the core of Algorithm 1
    /// lines 1-2 ("map C_i, R_i to Priority_i").
    ///
    /// Returned in **log-space** (`ln U_i`): at paper scale the linear
    /// `U_i` of Eq. 10 underflows `f64` to 0 for well-spread messages,
    /// which would collapse the ranking into ties; `ln` is monotone so
    /// all comparisons are unchanged. Zero-utility messages map to
    /// `-inf`.
    pub fn utility(&self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.utility_with(self.model(), now, msg)
    }

    /// [`Self::utility`] through the incremental memo — the form the
    /// [`BufferPolicy`] ranking hooks use. Both the verbatim-hit and the
    /// incremental path return the exact float a recompute would
    /// produce (see [`UtilityEntry::complete`]); simulation results are
    /// bit-identical with the cache on or off.
    fn utility_cached(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        if !self.cache.enabled {
            // Bypass: the memo is never consulted, so nothing counts as
            // a hit or a miss — uncached runs report all-zero stats.
            return self.utility(now, msg);
        }
        let ts = now.as_secs();
        if let Some(e) = self.cache.entries.get_mut(&msg.id) {
            if e.matches(msg) {
                if e.now_bits == ts.to_bits() {
                    self.cache.hits += 1;
                    return e.value;
                }
                if ts >= e.computed_at && ts < e.seen_valid_until {
                    // Every input that moved since `computed_at` is a
                    // pure function of time, and the bucket horizon
                    // certifies `m_i` did not move: finish from the
                    // cached prefixes.
                    let r = msg.remaining_ttl.as_secs().max(0.0);
                    let value = e.complete(r);
                    e.now_bits = ts.to_bits();
                    e.value = value;
                    self.cache.incremental += 1;
                    return value;
                }
            }
        }
        let model = match self.cache.model {
            Some(m) => m,
            None => {
                let m = self.model();
                self.cache.model = Some(m);
                m
            }
        };
        self.cache.misses += 1;
        if msg.spray_times.len() > SPRAY_PIN_CAP {
            // Too much history to pin: evaluate without memoising.
            return self.utility_with(model, now, msg);
        }
        let entry = self.build_entry(model, now, msg);
        let value = entry.value;
        self.cache.entries.insert(msg.id, entry);
        value
    }

    /// Miss-path rebuild: evaluates exactly as
    /// [`utility_with`](Self::utility_with) would and records the
    /// prefixes and validity horizon the incremental path needs.
    fn build_entry(
        &self,
        model: PriorityModel,
        now: SimTime,
        msg: &MessageView<'_>,
    ) -> UtilityEntry {
        let ts = now.as_secs();
        let e_min = model.e_i_min();
        let seen = msg
            .oracle_seen
            .unwrap_or_else(|| estimate_m(msg.spray_times, now, e_min, self.cfg.n_nodes));
        let holders = msg
            .oracle_holders
            .unwrap_or_else(|| estimate_n(seen, self.dropped.drop_count(msg.id)));
        let r = msg.remaining_ttl.as_secs().max(0.0);
        let pt = model.p_delivered(seen);
        let h = holders.max(1) as f64;
        let (lp1, correction) = model.exposure_parts(msg.copies);
        let (taylor_terms, base, lh, h_ln) = match self.cfg.mode {
            PriorityMode::Exact => {
                if let LambdaMode::OnlinePerDestination { .. } = self.cfg.lambda {
                    // SDSRP-H: the destination-specific rate takes the
                    // leading factor and the exponent; the pooled λ
                    // stays inside A_i (already in `correction`).
                    let l_dest = self.lambda_est.lambda_for(msg.destination);
                    (0, (1.0 - pt).ln() + l_dest.ln(), l_dest * h, 0.0)
                } else {
                    (
                        0,
                        (1.0 - pt).ln() + model.lambda.ln(),
                        model.lambda * h,
                        0.0,
                    )
                }
            }
            PriorityMode::Taylor { terms } => (terms, (1.0 - pt).ln(), model.lambda * h, h.ln()),
        };
        let mut spray_bits = [0u64; SPRAY_PIN_CAP];
        for (slot, t) in spray_bits.iter_mut().zip(msg.spray_times) {
            *slot = t.as_secs().to_bits();
        }
        let entry = UtilityEntry {
            copies: msg.copies,
            spray_len: msg.spray_times.len() as u32,
            spray_bits,
            destination: msg.destination,
            oracle_key: oracle_key_of(msg),
            computed_at: ts,
            seen_valid_until: seen_horizon(
                msg.spray_times,
                ts,
                e_min,
                seen,
                self.cfg.n_nodes,
                msg.oracle_seen.is_some(),
            ),
            pt_dead: pt >= 1.0,
            taylor_terms,
            base,
            lh,
            h_ln,
            lp1,
            correction,
            now_bits: ts.to_bits(),
            value: 0.0,
        };
        let value = entry.complete(r);
        debug_assert_eq!(
            value.to_bits(),
            self.utility_with(model, now, msg).to_bits(),
            "prefix evaluation diverged from the full form"
        );
        UtilityEntry { value, ..entry }
    }

    fn utility_with(&self, model: PriorityModel, now: SimTime, msg: &MessageView<'_>) -> f64 {
        // m_i: oracle if provided, else the Eq. 15 spray-tree estimate.
        let seen = msg
            .oracle_seen
            .unwrap_or_else(|| estimate_m(msg.spray_times, now, model.e_i_min(), self.cfg.n_nodes));
        // n_i: oracle if provided, else Eq. 14 with the gossiped d_i.
        let holders = msg
            .oracle_holders
            .unwrap_or_else(|| estimate_n(seen, self.dropped.drop_count(msg.id)));
        let r = msg.remaining_ttl.as_secs().max(0.0);
        // SDSRP-H: rank with the destination-specific meeting rate.
        if let LambdaMode::OnlinePerDestination { .. } = self.cfg.lambda {
            if self.cfg.mode == PriorityMode::Exact {
                let l_dest = self.lambda_est.lambda_for(msg.destination);
                return model.log_priority_dest(seen, holders, msg.copies, r, l_dest);
            }
        }
        match self.cfg.mode {
            PriorityMode::Exact => model.log_priority(seen, holders, msg.copies, r),
            PriorityMode::Taylor { terms } => {
                model.log_priority_taylor(seen, holders, msg.copies, r, terms)
            }
        }
    }
}

impl BufferPolicy for Sdsrp {
    fn name(&self) -> &'static str {
        "SDSRP"
    }

    fn send_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.utility_cached(now, msg)
    }

    fn accepts(&mut self, _now: SimTime, msg: MessageId) -> bool {
        !(self.cfg.reject_dropped && self.dropped.anyone_dropped(msg))
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        // λ only moves when an intermeeting gap is actually sampled
        // (first contacts and zero gaps change nothing); only then is
        // the memo stale — wholesale, since λ enters every priority.
        if self.lambda_est.on_contact_up(now, peer) {
            self.cache.invalidate();
        }
    }

    fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        // Closing a contact only stamps the estimator's
        // `last_contact_end`; no utility input changes, the memo stays
        // exact.
        self.lambda_est.on_contact_down(now, peer);
    }

    fn on_drop(&mut self, now: SimTime, msg: MessageId) {
        // An own drop changes d_i (Eq. 14) of *this* message only — λ
        // and every other message's inputs are untouched, so evict the
        // single entry and keep the memoised model.
        self.dropped.record_own_drop(now, msg);
        self.cache.entries.remove(&msg);
    }

    fn on_node_reset(&mut self, _now: SimTime) {
        // A crash wipes all distributed state: the λ estimator returns
        // to its prior (contact-history endpoints included — otherwise
        // the first post-reboot contact would sample one enormous bogus
        // intermeeting gap), the dropped list restarts empty (its
        // gossip record times restart with it), and the priority memo
        // is rebuilt from scratch.
        self.lambda_est.reset();
        self.dropped.clear();
        self.cache.invalidate();
    }

    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        if self.cfg.gossip && self.dropped.origin_count() > 0 {
            Some(self.dropped.to_gossip_bytes())
        } else {
            None
        }
    }

    fn import_gossip(&mut self, _now: SimTime, bytes: &[u8]) -> usize {
        if !self.cfg.gossip {
            return 0;
        }
        if !self.cache.enabled {
            // Reference path: the pre-optimisation algorithm decoded the
            // whole payload into owned records and then merged. The
            // differential suite runs it against the streaming merge
            // below and demands bit-identical fingerprints, so the two
            // merge strategies verify each other on every CI run.
            return match DroppedList::decode_records(bytes) {
                Some(records) => self.dropped.merge(&records),
                None => 0,
            };
        }
        // Adopted records move d_i of exactly the reported messages; λ
        // and every other memo entry stay valid.
        let mut changed = std::mem::take(&mut self.cache.changed);
        changed.clear();
        let adopted = self
            .dropped
            .merge_gossip_bytes_tracking(bytes, &mut changed);
        for id in changed.drain(..) {
            self.cache.entries.remove(&id);
        }
        self.cache.changed = changed;
        adopted
    }

    fn set_priority_cache(&mut self, enabled: bool) {
        self.cache.enabled = enabled;
        self.cache.invalidate();
        // Counters restart with the new setting so the reported stats
        // describe a single cache configuration, never a mix.
        self.cache.hits = 0;
        self.cache.incremental = 0;
        self.cache.misses = 0;
    }

    fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
        Some(PriorityCacheStats {
            hits: self.cache.hits,
            incremental: self.cache.incremental,
            misses: self.cache.misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_buffer::policy::{plan_admission, schedule_order, AdmissionPlan};
    use dtn_buffer::view::TestMessage;
    use dtn_core::time::SimDuration;
    use dtn_core::units::Bytes;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn oracle_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Oracle(1.0 / 1000.0),
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    fn policy() -> Sdsrp {
        Sdsrp::new(NodeId(0), oracle_cfg())
    }

    /// Builds a message with the spray history implied by "sprayed once
    /// `ago` seconds before now".
    fn msg_with(
        id: u64,
        copies: u32,
        remaining_mins: f64,
        spray_ago: &[f64],
        now: f64,
    ) -> TestMessage {
        let mut m = TestMessage::sample(id);
        m.copies = copies;
        m.remaining_ttl = SimDuration::from_mins(remaining_mins);
        m.spray_times = spray_ago
            .iter()
            .map(|&ago| t((now - ago).max(0.0)))
            .collect();
        m
    }

    #[test]
    fn fresh_unsprayed_message_outranks_saturated_one() {
        let mut p = policy();
        let now = t(1000.0);
        // Fresh: no sprays recorded, full TTL, lots of copies.
        let fresh = msg_with(1, 32, 300.0, &[], 1000.0);
        // Saturated: sprayed long ago repeatedly, little TTL left.
        let old = msg_with(2, 1, 3.0, &[900.0, 700.0, 500.0], 1000.0);
        let uf = p.send_priority(now, &fresh.view());
        let uo = p.send_priority(now, &old.view());
        assert!(uf > uo, "fresh {uf} <= saturated {uo}");
    }

    /// Sparse-network config: E(I) = 100 000 s, so delivery within the
    /// remaining TTL is genuinely uncertain (P(R) below the 1-1/e peak)
    /// and extra copies carry value — the regime Fig. 2's "early"
    /// decision lives in.
    fn sparse_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Oracle(1e-5),
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    #[test]
    fn fig2_reversal_small_c_and_r_can_win() {
        // Paper Fig. 2: in node c (early), M_i with larger C and R wins;
        // in node e (late), the same comparison flips because M_i's
        // infection estimate has exploded while M_j stays small.
        let p = Sdsrp::new(NodeId(0), sparse_cfg());
        // Early: neither message has sprayed yet; bigger C & R -> more
        // to gain.
        let now_early = t(100.0);
        let mi_early = msg_with(1, 16, 250.0, &[], 100.0);
        let mj_early = msg_with(2, 4, 120.0, &[], 100.0);
        let ui = p.utility(now_early, &mi_early.view());
        let uj = p.utility(now_early, &mj_early.view());
        assert!(ui > uj, "early: U_i {ui} should exceed U_j {uj}");

        // Late: M_i was sprayed long ago -> huge m_i estimate -> its
        // priority collapses below M_j's.
        let now_late = t(10_000.0);
        let mi_late = msg_with(1, 16, 60.0, &[9800.0, 9000.0], 10_000.0);
        let mj_late = msg_with(2, 4, 30.0, &[300.0], 10_000.0);
        let ui = p.utility(now_late, &mi_late.view());
        let uj = p.utility(now_late, &mj_late.view());
        assert!(uj > ui, "late: U_j {uj} should exceed U_i {ui}");
    }

    #[test]
    fn schedule_and_drop_use_same_ranking() {
        let mut p = policy();
        let now = t(500.0);
        let a = msg_with(1, 32, 300.0, &[], 500.0);
        let b = msg_with(2, 1, 2.0, &[400.0, 300.0, 200.0], 500.0);
        let views = vec![a.view(), b.view()];
        let order = schedule_order(&mut p, now, &views);
        assert_eq!(order[0], MessageId(1));
        // Overflow with a high-priority newcomer: evict the tail of the
        // schedule order.
        let incoming = msg_with(9, 32, 300.0, &[], 500.0);
        let plan = plan_admission(
            &mut p,
            now,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.0),
        );
        assert_eq!(
            plan,
            AdmissionPlan::Admit {
                evict: vec![MessageId(2)]
            }
        );
    }

    #[test]
    fn dropped_messages_are_refused() {
        let mut p = policy();
        assert!(p.accepts(t(0.0), MessageId(7)));
        p.on_drop(t(10.0), MessageId(7));
        assert!(!p.accepts(t(11.0), MessageId(7)));
    }

    #[test]
    fn reject_dropped_can_be_disabled() {
        let mut cfg = oracle_cfg();
        cfg.reject_dropped = false;
        let mut p = Sdsrp::new(NodeId(0), cfg);
        p.on_drop(t(10.0), MessageId(7));
        assert!(p.accepts(t(11.0), MessageId(7)));
    }

    #[test]
    fn gossip_propagates_drop_knowledge() {
        let mut a = policy();
        let mut b = Sdsrp::new(NodeId(1), oracle_cfg());
        a.on_drop(t(5.0), MessageId(3));
        let payload = a.export_gossip(t(6.0)).expect("has records");
        b.import_gossip(t(6.0), &payload);
        assert!(!b.accepts(t(7.0), MessageId(3)));
        assert_eq!(b.dropped_list().drop_count(MessageId(3)), 1);
    }

    #[test]
    fn gossip_disabled_exports_nothing() {
        let mut cfg = oracle_cfg();
        cfg.gossip = false;
        let mut p = Sdsrp::new(NodeId(0), cfg);
        p.on_drop(t(5.0), MessageId(3));
        assert_eq!(p.export_gossip(t(6.0)), None);
    }

    #[test]
    fn empty_dropped_list_exports_nothing() {
        let mut p = policy();
        assert_eq!(p.export_gossip(t(0.0)), None);
    }

    #[test]
    fn drops_lower_n_estimate_and_raise_priority() {
        // Eq. 14: recorded drops reduce n_i, which (in the saturated
        // regime) *raises* the message's priority — fewer live copies
        // mean a copy is worth more.
        let mut with_drops = Sdsrp::new(NodeId(0), sparse_cfg());
        let without_drops = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(2000.0);
        let m = msg_with(1, 4, 100.0, &[1500.0, 1000.0], 2000.0);
        let u_before = without_drops.utility(now, &m.view());
        // Two other nodes report dropping message 1.
        let mut peer1 = Sdsrp::new(NodeId(5), sparse_cfg());
        let mut peer2 = Sdsrp::new(NodeId(6), sparse_cfg());
        peer1.on_drop(t(100.0), MessageId(1));
        peer2.on_drop(t(100.0), MessageId(1));
        with_drops.import_gossip(now, &peer1.export_gossip(now).unwrap());
        with_drops.import_gossip(now, &peer2.export_gossip(now).unwrap());
        let u_after = with_drops.utility(now, &m.view());
        assert!(
            u_after > u_before,
            "drops should raise priority: {u_after} vs {u_before}"
        );
    }

    #[test]
    fn oracle_views_override_estimators() {
        let p = policy();
        let now = t(1000.0);
        let mut m = msg_with(1, 8, 100.0, &[900.0, 800.0], 1000.0);
        m.oracle_seen = Some(2);
        m.oracle_holders = Some(3);
        let u_oracle = p.utility(now, &m.view());
        let model = p.model();
        let expect = model.log_priority(2, 3, 8, 100.0 * 60.0);
        assert!((u_oracle - expect).abs() < 1e-12);
    }

    #[test]
    fn taylor_mode_approximates_exact() {
        let exact = Sdsrp::new(NodeId(0), sparse_cfg());
        let mut cfg = sparse_cfg();
        cfg.mode = PriorityMode::Taylor { terms: 64 };
        let approx = Sdsrp::new(NodeId(0), cfg);
        let now = t(3000.0);
        let m = msg_with(1, 8, 150.0, &[2500.0], 3000.0);
        let ue = exact.utility(now, &m.view());
        let ua = approx.utility(now, &m.view());
        assert!(ua <= ue + 1e-12, "Taylor must lower-bound exact");
        assert!(
            (ue - ua) <= ue.abs() * 0.05 + 1e-6,
            "64-term Taylor too far off: {ua} vs {ue}"
        );
    }

    #[test]
    fn online_lambda_feeds_priority() {
        let mut cfg = oracle_cfg();
        cfg.lambda = LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 1,
        };
        let mut p = Sdsrp::new(NodeId(0), cfg);
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
        // Two contacts with a 500 s gap teach λ = 1/500.
        p.on_contact_up(t(0.0), NodeId(1));
        p.on_contact_down(t(10.0), NodeId(1));
        p.on_contact_up(t(510.0), NodeId(1));
        assert!((p.lambda() - 1.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn per_destination_lambda_differentiates_messages() {
        // A node that meets node 1 every 100 s but node 2 every 5000 s:
        // two otherwise-identical messages destined to 1 vs 2 must rank
        // differently under SDSRP-H (and identically under pooled λ).
        let mut cfg = oracle_cfg();
        cfg.lambda = LambdaMode::OnlinePerDestination {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        };
        let mut p = Sdsrp::new(NodeId(0), cfg);
        // Three gaps of 100 s with node 1.
        for k in 0..4 {
            p.on_contact_up(t(k as f64 * 110.0), NodeId(1));
            p.on_contact_down(t(k as f64 * 110.0 + 10.0), NodeId(1));
        }
        // Three gaps of 5000 s with node 2.
        for k in 0..4 {
            p.on_contact_up(t(k as f64 * 5010.0), NodeId(2));
            p.on_contact_down(t(k as f64 * 5010.0 + 10.0), NodeId(2));
        }
        let now = t(20_100.0);
        let mut to_fast = msg_with(1, 4, 100.0, &[], 20_100.0);
        to_fast.destination = NodeId(1);
        let mut to_slow = msg_with(2, 4, 100.0, &[], 20_100.0);
        to_slow.destination = NodeId(2);
        let u_fast = p.utility(now, &to_fast.view());
        let u_slow = p.utility(now, &to_slow.view());
        assert_ne!(u_fast, u_slow, "per-destination λ had no effect");

        // Pooled mode ranks them identically.
        let mut pooled_cfg = oracle_cfg();
        pooled_cfg.lambda = LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        };
        let pooled = Sdsrp::new(NodeId(0), pooled_cfg);
        assert_eq!(
            pooled.utility(now, &to_fast.view()),
            pooled.utility(now, &to_slow.view())
        );
    }

    #[test]
    fn per_destination_reduces_to_pooled_when_uniform() {
        // All peers met at the same cadence: lambda_for == lambda, so
        // SDSRP-H and plain SDSRP agree exactly.
        let mk = |mode: LambdaMode| {
            let mut cfg = oracle_cfg();
            cfg.lambda = mode;
            let mut p = Sdsrp::new(NodeId(0), cfg);
            for peer in 1..4u32 {
                for k in 0..4 {
                    p.on_contact_up(t(k as f64 * 500.0 + peer as f64), NodeId(peer));
                    p.on_contact_down(t(k as f64 * 500.0 + peer as f64 + 1.0), NodeId(peer));
                }
            }
            p
        };
        let h = mk(LambdaMode::OnlinePerDestination {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        });
        let plain = mk(LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 2,
        });
        let now = t(3000.0);
        let mut m = msg_with(1, 8, 200.0, &[], 3000.0);
        m.destination = NodeId(2);
        let a = h.utility(now, &m.view());
        let b = plain.utility(now, &m.view());
        assert!(a.is_finite() && b.is_finite(), "degenerate test inputs");
        assert!(
            (a - b).abs() < 1e-2 * b.abs(),
            "uniform cadence should make SDSRP-H ~= SDSRP: {a} vs {b}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one Taylor term")]
    fn zero_taylor_terms_rejected() {
        let mut cfg = oracle_cfg();
        cfg.mode = PriorityMode::Taylor { terms: 0 };
        let _ = Sdsrp::new(NodeId(0), cfg);
    }

    /// Online-λ config so contacts actually move λ (the harshest case
    /// for the memo: every λ sample invalidates wholesale).
    fn online_cfg() -> SdsrpConfig {
        SdsrpConfig {
            n_nodes: 100,
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 1,
            },
            mode: PriorityMode::Exact,
            reject_dropped: true,
            gossip: true,
        }
    }

    #[test]
    fn cached_ranking_is_bit_identical_to_uncached() {
        // Twin policies fed the same event stream; one with the memo
        // disabled. Every ranking must agree to the last bit, including
        // repeats at the same instant (hits), repeats at fresh instants
        // (incremental completions) and across λ / drop / gossip
        // invalidations.
        let mut cached = Sdsrp::new(NodeId(0), online_cfg());
        let mut plain = Sdsrp::new(NodeId(0), online_cfg());
        plain.set_priority_cache(false);

        let mut peer = Sdsrp::new(NodeId(9), online_cfg());
        peer.on_drop(t(40.0), MessageId(2));
        let gossip = peer.export_gossip(t(50.0)).unwrap();

        let msgs = [
            msg_with(1, 16, 200.0, &[], 500.0),
            msg_with(2, 4, 90.0, &[450.0, 200.0], 500.0),
            msg_with(3, 1, 5.0, &[480.0, 300.0, 100.0], 500.0),
        ];
        let check = |cached: &mut Sdsrp, plain: &mut Sdsrp, now: SimTime| {
            for m in &msgs {
                // Twice: the second call is a guaranteed memo hit.
                for _ in 0..2 {
                    let a = cached.send_priority(now, &m.view());
                    let b = plain.send_priority(now, &m.view());
                    assert_eq!(a.to_bits(), b.to_bits(), "diverged on {:?}", m.id);
                }
            }
        };

        check(&mut cached, &mut plain, t(500.0));
        for p in [&mut cached, &mut plain] {
            p.on_contact_up(t(600.0), NodeId(3));
            p.on_contact_down(t(620.0), NodeId(3));
            p.on_contact_up(t(900.0), NodeId(3)); // λ sample lands
        }
        check(&mut cached, &mut plain, t(950.0));
        for p in [&mut cached, &mut plain] {
            p.on_drop(t(1000.0), MessageId(1));
            p.import_gossip(t(1010.0), &gossip);
        }
        check(&mut cached, &mut plain, t(1050.0));
        // Time moves with no intervening event: the incremental path
        // must still agree bit-for-bit.
        check(&mut cached, &mut plain, t(1051.0));

        let stats = cached.priority_cache_stats().unwrap();
        assert!(stats.hits > 0, "memo never hit: {stats:?}");
        assert!(
            stats.incremental > 0,
            "incremental path never ran: {stats:?}"
        );
        assert_eq!(plain.priority_cache_stats().unwrap(), Default::default());
    }

    #[test]
    fn time_passage_takes_incremental_path_not_miss() {
        // The point of the incremental design: advancing the clock with
        // no intervening event must NOT rebuild entries. Sparse config
        // so the Eq. 15 bucket (E(I_min) ≈ 1010 s) comfortably spans
        // the probe instants.
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let m = msg_with(1, 4, 200.0, &[500.0], 1000.0);
        p.send_priority(t(1000.0), &m.view());
        let after_warm = p.priority_cache_stats().unwrap();
        assert_eq!((after_warm.misses, after_warm.incremental), (1, 0));

        for (k, now) in [1001.0, 1002.5, 1040.0, 1300.0].into_iter().enumerate() {
            let v = p.send_priority(t(now), &m.view());
            let stats = p.priority_cache_stats().unwrap();
            assert_eq!(stats.misses, 1, "time passage caused a rebuild");
            assert_eq!(stats.incremental as usize, k + 1);
            // Incremental completion == cold recompute, bit for bit.
            let cold = Sdsrp::new(NodeId(0), sparse_cfg());
            assert_eq!(v.to_bits(), cold.utility(t(now), &m.view()).to_bits());
        }
    }

    #[test]
    fn bucket_boundary_crossing_forces_rebuild_and_stays_exact() {
        // Oracle-λ model: E(I_min) = 1000/99 ≈ 10.101 s. A spray at
        // t=0 moves buckets every E(I_min); probing across many
        // boundaries must re-estimate m_i exactly like a cold policy.
        let mut p = policy();
        let e_min = p.model().e_i_min();
        let spray_at = 0.0;
        for step in 1..40 {
            let now = spray_at + e_min * step as f64 * 0.75;
            let m = msg_with(1, 8, 120.0, &[now - spray_at], now);
            let warm = p.send_priority(t(now), &m.view());
            let cold = Sdsrp::new(NodeId(0), oracle_cfg());
            assert_eq!(
                warm.to_bits(),
                cold.utility(t(now), &m.view()).to_bits(),
                "diverged at step {step}"
            );
        }
        let stats = p.priority_cache_stats().unwrap();
        assert!(
            stats.misses > 1,
            "bucket boundaries never forced a rebuild: {stats:?}"
        );
        assert!(
            stats.incremental > 0,
            "within-bucket probes never took the fast path: {stats:?}"
        );
    }

    #[test]
    fn eviction_ranking_uses_consistent_now_snapshot() {
        // Regression (stale-TTL ranking): warm the memo at t0, then
        // plan an eviction at t1 where TTL decay has flipped the order
        // of two residents. The warm policy must pick the same victim
        // as a cold policy ranking everything freshly at t1.
        let now0 = t(100.0);
        let now1 = t(4000.0);
        // Resident A: long TTL, sprayed (lower priority early).
        // Resident B: short TTL, unsprayed (higher priority early, but
        // its exposure collapses as the TTL burns down).
        let a = msg_with(1, 2, 300.0, &[50.0], 100.0);
        let b = msg_with(2, 16, 68.0, &[], 100.0);
        let incoming = msg_with(9, 32, 300.0, &[], 100.0);
        let views = vec![a.view(), b.view()];

        let plan_at = |p: &mut Sdsrp, now: SimTime| {
            plan_admission(
                p,
                now,
                &incoming.view(),
                &views,
                Bytes::ZERO,
                Bytes::from_mb(1.0),
            )
        };

        let mut warm = Sdsrp::new(NodeId(0), sparse_cfg());
        // Warm every entry at t0...
        warm.send_priority(now0, &a.view());
        warm.send_priority(now0, &b.view());
        warm.send_priority(now0, &incoming.view());
        // ...then rank at t1.
        let warm_plan = plan_at(&mut warm, now1);
        let mut cold = Sdsrp::new(NodeId(0), sparse_cfg());
        let cold_plan = plan_at(&mut cold, now1);
        assert_eq!(warm_plan, cold_plan, "stale-TTL ranking divergence");

        // Non-vacuity: the same decision taken at t0 differs, i.e. the
        // TTL decay between t0 and t1 really flips the order.
        let mut cold0 = Sdsrp::new(NodeId(0), sparse_cfg());
        assert_ne!(plan_at(&mut cold0, now0), cold_plan);
    }

    #[test]
    fn gossip_import_invalidates_only_reported_messages() {
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(1000.0);
        let m1 = msg_with(1, 4, 100.0, &[500.0], 1000.0);
        let m2 = msg_with(2, 4, 100.0, &[500.0], 1000.0);
        p.send_priority(now, &m1.view());
        p.send_priority(now, &m2.view());

        // A peer gossips a drop of message 1 only.
        let mut peer = Sdsrp::new(NodeId(9), sparse_cfg());
        peer.on_drop(t(40.0), MessageId(1));
        let adopted = p.import_gossip(t(1001.0), &peer.export_gossip(t(1001.0)).unwrap());
        assert_eq!(adopted, 1);

        let before = p.priority_cache_stats().unwrap();
        // Message 2's entry survived: same-instant probe is a hit.
        p.send_priority(now, &m2.view());
        // Message 1's entry was evicted: this is a rebuild.
        p.send_priority(now, &m1.view());
        let after = p.priority_cache_stats().unwrap();
        assert_eq!(after.hits, before.hits + 1, "m2 entry was evicted");
        assert_eq!(after.misses, before.misses + 1, "m1 entry survived");
        // And the rebuilt value reflects the new d_i.
        let cold = {
            let mut c = Sdsrp::new(NodeId(0), sparse_cfg());
            c.import_gossip(t(1001.0), &peer.export_gossip(t(1001.0)).unwrap());
            c
        };
        assert_eq!(
            p.send_priority(now, &m1.view()).to_bits(),
            cold.utility(now, &m1.view()).to_bits()
        );
    }

    #[test]
    fn disabling_cache_resets_stats_and_counts_nothing() {
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let m = msg_with(1, 4, 100.0, &[500.0], 1000.0);
        p.send_priority(t(1000.0), &m.view());
        p.send_priority(t(1000.0), &m.view());
        assert_ne!(p.priority_cache_stats().unwrap(), Default::default());

        p.set_priority_cache(false);
        assert_eq!(p.priority_cache_stats().unwrap(), Default::default());
        p.send_priority(t(1000.0), &m.view());
        p.send_priority(t(1001.0), &m.view());
        // Bypass evaluations are not misses — the memo was never asked.
        assert_eq!(p.priority_cache_stats().unwrap(), Default::default());

        // Re-enabling also restarts the counters.
        p.set_priority_cache(true);
        p.send_priority(t(1002.0), &m.view());
        let stats = p.priority_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.incremental, stats.misses), (0, 0, 1));
    }

    #[test]
    fn node_reset_returns_policy_to_cold_state() {
        let mut p = Sdsrp::new(NodeId(0), online_cfg());
        // Teach λ, record drops, import gossip.
        p.on_contact_up(t(0.0), NodeId(1));
        p.on_contact_down(t(10.0), NodeId(1));
        p.on_contact_up(t(510.0), NodeId(1));
        p.on_drop(t(600.0), MessageId(3));
        let mut peer = Sdsrp::new(NodeId(9), online_cfg());
        peer.on_drop(t(40.0), MessageId(2));
        p.import_gossip(t(650.0), &peer.export_gossip(t(650.0)).unwrap());
        assert!((p.lambda() - 1.0 / 500.0).abs() < 1e-12);
        assert!(!p.accepts(t(700.0), MessageId(3)));
        assert!(!p.accepts(t(700.0), MessageId(2)));

        p.on_node_reset(t(700.0));

        // λ back to the prior, dropped list empty, acceptance restored.
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
        assert!(p.accepts(t(710.0), MessageId(3)));
        assert!(p.accepts(t(710.0), MessageId(2)));
        assert_eq!(p.export_gossip(t(710.0)), None);
        // The rebooted node behaves like a fresh construction: first
        // contact after reboot is not an intermeeting sample.
        p.on_contact_up(t(800.0), NodeId(1));
        assert!((p.lambda() - 1.0 / 2000.0).abs() < 1e-15);
    }

    #[test]
    fn cache_key_distinguishes_spray_history_at_same_instant() {
        // Same id, same copies, same now — only the spray timestamps
        // differ. The pinned inputs must force a recompute (distinct
        // value).
        let mut p = Sdsrp::new(NodeId(0), sparse_cfg());
        let now = t(5000.0);
        let a = msg_with(1, 4, 100.0, &[4000.0], 5000.0);
        let b = msg_with(1, 4, 100.0, &[500.0], 5000.0);
        let ua = p.send_priority(now, &a.view());
        let ub = p.send_priority(now, &b.view());
        assert_ne!(ua, ub, "spray-history change not reflected");
    }

    #[test]
    fn seen_horizon_is_exact_at_bucket_boundaries() {
        // Brute-force check of the certification: for a range of spray
        // times and E(I_min) values, estimate_m must be constant on
        // [now, horizon) and different (or the entry rebuilt) at the
        // horizon itself.
        for &(tk, e_min, now_s) in &[
            (0.0, 10.0, 25.0),
            (3.0, 1010.10101010101, 500.0),
            (100.0, 0.1, 100.05),
            (7.0, 3.3333333333333335, 7.0),
            (0.0, 1e-3, 0.0617),
        ] {
            let spray = [t(tk)];
            let seen = estimate_m(&spray, t(now_s), e_min, 100);
            let horizon = seen_horizon(&spray, now_s, e_min, seen, 100, false);
            assert!(horizon > now_s, "empty window for tk={tk} e={e_min}");
            if horizon.is_finite() {
                // Just below the horizon: same estimate.
                let probe = next_down(horizon);
                assert_eq!(
                    estimate_m(&spray, t(probe), e_min, 100),
                    seen,
                    "estimate moved inside the certified window (tk={tk}, e={e_min})"
                );
                // At the horizon: the estimate moves (that is what the
                // boundary means).
                assert_ne!(
                    estimate_m(&spray, t(horizon), e_min, 100),
                    seen,
                    "horizon is not actually a boundary (tk={tk}, e={e_min})"
                );
            }
        }
    }

    #[test]
    fn next_down_is_strictly_below() {
        for &x in &[1.0, 0.0, -1.0, 1e300, 1e-300, 25.000000000000004] {
            let y = next_down(x);
            assert!(y < x, "next_down({x}) = {y} not below");
            assert_eq!(f64::from_bits(y.to_bits()), y);
            let z = next_up(x);
            assert!(z > x, "next_up({x}) = {z} not above");
            assert_eq!(next_up(y), x, "next_up does not undo next_down at {x}");
        }
        assert_eq!(next_down(f64::INFINITY), f64::MAX);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
    }
}
