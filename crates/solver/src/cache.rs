//! A validity/satisfiability query cache over hash-consed terms.
//!
//! The synthesizer's round-robin search discharges thousands of near-identical
//! subtyping and resource obligations: candidate programs share long prefixes,
//! so the same `Γ ⊨ ψ` query is re-proved over and over. A [`SolverCache`]
//! interns every query into a shared [`TermArena`] and memoizes the solver's
//! verdict keyed on the interned ids, so a structurally equal query issued by
//! any later candidate — from the type checker or the CEGIS loop — is
//! answered without touching the decision procedures.
//!
//! # Invariants
//!
//! * **Keys carry the environment and the solver configuration.** A verdict
//!   depends on the sorting environment (e.g. `a = b` normalizes differently
//!   at sort `Bool` than at `Int`, and the model built for a `Sat` answer
//!   assigns every environment variable) and on the solver's work limits
//!   (a raised decision limit can turn `Unknown` into a verdict), so every
//!   key includes a fingerprint of the *entire* environment — variables,
//!   measure signatures, unknown declarations — plus a caller-supplied
//!   configuration fingerprint. Identical formulas under different
//!   environments or limits never alias.
//! * **Entries may vanish, never change.** The solver is a pure function of
//!   (environment, configuration, query): nothing outside the key can change
//!   a verdict, so a hit is always safe to use and the tables can be shared
//!   freely across solver instances, checker runs and CEGIS iterations. What
//!   a caller may *not* assume is that a stored verdict stays resident: under
//!   a byte budget ([`bounded`](SolverCache::bounded)) cold entries are
//!   evicted and the query is simply re-proved on the next miss. Eviction
//!   never changes an answer, only its cost.
//! * **Premise order is canonicalized.** Validity keys sort and deduplicate
//!   the premise ids (conjunction is order-insensitive), so permuted premise
//!   lists hit the same entry.
//!
//! The cache is cheaply cloneable (an [`Arc`]) and internally synchronized;
//! clones share one logical table.
//!
//! # Sharding
//!
//! Internally the cache is split into [`SHARDS`] independent shards, each
//! with its own intern arena and verdict tables behind its own lock. A
//! query's shard is chosen by a *structural* hash of the query (environment
//! and configuration fingerprints plus order- and duplicate-insensitive term
//! hashes) computed **outside** any lock, so structurally equal queries
//! always meet in the same shard — sharing semantics are identical to a
//! single-table cache — while the parallel evaluation harness's workers,
//! whose queries scatter across shards, no longer serialize on one mutex.
//! (With a single lock, a cache *hit* still interned the whole query under
//! the mutex, so concurrent synthesis runs made no wall-clock progress.)
//!
//! # Bounding
//!
//! A cache built with [`bounded`](SolverCache::bounded) divides its byte
//! budget evenly across the shards and keeps each shard's *approximate*
//! verdict footprint (keys, verdicts, table overhead — the arena itself is
//! not metered) under its slice with a second-chance (clock) policy: every
//! stored entry joins a FIFO ring, a hit sets its referenced bit, and when
//! the shard is over budget the ring is scanned from the oldest end —
//! referenced entries lose their bit and go to the back, unreferenced ones
//! are evicted. [`CacheStats::evictions`] counts the casualties and
//! [`CacheStats::resident_bytes`] the surviving footprint.
//!
//! # Persistence
//!
//! [`with_snapshot_file`](SolverCache::with_snapshot_file) attaches an
//! append-only on-disk log (see [`crate::persist`]): every stored verdict is
//! also written as one JSON record line, and on startup the log is replayed
//! (then compacted) so a restarted process answers its old queries warm.
//! [`export_snapshot`](SolverCache::export_snapshot) /
//! [`import_snapshot`](SolverCache::import_snapshot) move the same records
//! over the wire so one server can seed another.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use resyn_logic::{Model, SortingEnv, Term, TermArena, TermId, Value};

use crate::persist::{self, LoadStats};
use crate::smt::{SatResult, ValidityResult};

/// Counters describing a cache (see [`SolverCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
    /// Total terms across the per-shard intern arenas. Each shard interns
    /// independently, so a subterm reaching queries that hash to different
    /// shards is counted once **per shard** — this is an arena-size total,
    /// not a count of globally distinct terms (unlike PR 2's single arena).
    pub interned_terms: usize,
    /// Cached validity verdicts.
    pub validity_entries: usize,
    /// Cached satisfiability verdicts.
    pub sat_entries: usize,
    /// Entries dropped by the second-chance policy to stay under budget.
    pub evictions: u64,
    /// Approximate bytes of resident verdict entries (keys + verdicts +
    /// table overhead; the intern arenas are not metered).
    pub resident_bytes: usize,
}

/// Number of independent shards (arenas + verdict tables) inside a cache.
/// Chosen to comfortably out-number the evaluation harness's worker cap (8)
/// so concurrent lookups rarely meet on one lock.
pub const SHARDS: usize = 16;

/// Opaque key for a pending validity query (returned by a miss, consumed by
/// [`SolverCache::store_valid`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValidityKey {
    pub(crate) shard: usize,
    pub(crate) env_fp: u64,
    pub(crate) config_fp: u64,
    pub(crate) premises: Vec<TermId>,
    pub(crate) conclusion: TermId,
}

/// Opaque key for a pending satisfiability query (returned by a miss,
/// consumed by [`SolverCache::store_sat`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SatKey {
    pub(crate) shard: usize,
    pub(crate) env_fp: u64,
    pub(crate) config_fp: u64,
    pub(crate) assumptions: Vec<TermId>,
}

/// A resident verdict plus its clock-eviction bookkeeping.
#[derive(Debug)]
struct Entry<T> {
    verdict: T,
    /// Approximate bytes this entry pins (key, verdict, table overhead).
    cost: usize,
    /// Second-chance bit: set on every hit, cleared (with a trip to the back
    /// of the ring) when the clock hand passes.
    referenced: bool,
}

/// A clock-ring reference to a verdict entry. Evicted entries leave their
/// ring slot behind as a stale reference, dropped when the hand reaches it.
#[derive(Debug)]
enum ClockRef {
    Valid(ValidityKey),
    Sat(SatKey),
}

#[derive(Debug, Default)]
struct Inner {
    arena: TermArena,
    valid: HashMap<ValidityKey, Entry<ValidityResult>>,
    sat: HashMap<SatKey, Entry<SatResult>>,
    /// Second-chance ring over both verdict tables, oldest at the front.
    clock: VecDeque<ClockRef>,
    /// Approximate bytes of resident entries (sum of [`Entry::cost`]).
    resident_bytes: usize,
    /// This shard's slice of the cache-wide byte budget; `None` = unbounded.
    budget: Option<usize>,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl Inner {
    /// Evict unreferenced entries (second-chance order) until the shard fits
    /// its budget again. Terminates: every full rotation of the ring clears
    /// referenced bits, and an empty ring ends the loop unconditionally.
    fn evict_to_budget(&mut self) {
        while self.budget.is_some_and(|b| self.resident_bytes > b) {
            let Some(candidate) = self.clock.pop_front() else {
                break;
            };
            match candidate {
                ClockRef::Valid(key) => match self.valid.get_mut(&key) {
                    None => {} // stale reference: the entry is already gone
                    Some(entry) if entry.referenced => {
                        entry.referenced = false;
                        self.clock.push_back(ClockRef::Valid(key));
                    }
                    Some(_) => {
                        let entry = self.valid.remove(&key).expect("entry just seen");
                        self.resident_bytes -= entry.cost;
                        self.evictions += 1;
                    }
                },
                ClockRef::Sat(key) => match self.sat.get_mut(&key) {
                    None => {}
                    Some(entry) if entry.referenced => {
                        entry.referenced = false;
                        self.clock.push_back(ClockRef::Sat(key));
                    }
                    Some(_) => {
                        let entry = self.sat.remove(&key).expect("entry just seen");
                        self.resident_bytes -= entry.cost;
                        self.evictions += 1;
                    }
                },
            }
        }
    }
}

/// Counters attributed to one cache *handle lineage* (see
/// [`SolverCache::scoped`]): only the lookups issued through this handle and
/// its clones, regardless of what other handles sharing the same tables are
/// doing concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Lookups by this lineage answered from the shared tables.
    pub hits: u64,
    /// Lookups by this lineage that fell through to the solver.
    pub misses: u64,
    /// Terms this lineage newly interned into the shared arenas.
    pub interned_terms: usize,
}

#[derive(Debug, Default)]
struct HandleCounters {
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    interned: std::sync::atomic::AtomicU64,
}

/// A shared, bounded, optionally persistent cache of solver verdicts keyed
/// on interned queries.
#[derive(Debug, Clone)]
pub struct SolverCache {
    shards: Arc<Vec<Mutex<Inner>>>,
    /// The append-only snapshot log, when attached; shared by all clones and
    /// scopes. Locked *after* a shard lock is released, never while holding
    /// one.
    log: Option<Arc<Mutex<std::fs::File>>>,
    /// Per-lineage counters: plain clones share them (a solver cloned for
    /// extra bindings keeps attributing to the same run), [`scoped`] clones
    /// get fresh ones.
    ///
    /// [`scoped`]: SolverCache::scoped
    local: Arc<HandleCounters>,
}

impl Default for SolverCache {
    fn default() -> Self {
        SolverCache::bounded(None)
    }
}

/// The order- and duplicate-insensitive structural hash used for shard
/// selection: individual term hashes are sorted and deduplicated so permuted
/// or repeated premise lists land in the shard where their canonicalized key
/// lives. Computed entirely outside the shard locks.
pub(crate) fn shard_index(
    env_fp: u64,
    config_fp: u64,
    terms: &[Term],
    conclusion: Option<&Term>,
) -> usize {
    let mut term_hashes: Vec<u64> = terms
        .iter()
        .map(|t| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        })
        .collect();
    term_hashes.sort_unstable();
    term_hashes.dedup();
    let mut h = DefaultHasher::new();
    env_fp.hash(&mut h);
    config_fp.hash(&mut h);
    term_hashes.hash(&mut h);
    if let Some(c) = conclusion {
        c.hash(&mut h);
    }
    (h.finish() as usize) % SHARDS
}

/// Fixed per-entry overhead charged on top of the key and verdict payloads:
/// a hash-map slot, the clock-ring reference (which clones the key), and
/// allocator slack. Deliberately coarse — the budget is approximate.
const ENTRY_OVERHEAD: usize = 96;

fn value_cost(value: &Value) -> usize {
    match value {
        Value::Set(s) => 16 + 8 * s.len(),
        Value::Bool(_) | Value::Int(_) => 16,
    }
}

fn model_cost(model: &Model) -> usize {
    model
        .iter()
        .chain(model.apps())
        .map(|(name, value)| 24 + name.len() + value_cost(value))
        .sum()
}

fn valid_entry_cost(key: &ValidityKey, verdict: &ValidityResult) -> usize {
    let verdict_bytes = match verdict {
        ValidityResult::Valid | ValidityResult::Cancelled => 0,
        ValidityResult::Invalid(m) => model_cost(m),
        ValidityResult::Unknown(msg) => msg.len(),
    };
    // The clock ring holds a clone of the key, hence the factor of two.
    ENTRY_OVERHEAD
        + 2 * (std::mem::size_of::<ValidityKey>() + 4 * key.premises.len())
        + verdict_bytes
}

fn sat_entry_cost(key: &SatKey, verdict: &SatResult) -> usize {
    let verdict_bytes = match verdict {
        SatResult::Unsat | SatResult::Cancelled => 0,
        SatResult::Sat(m) => model_cost(m),
        SatResult::Unknown(msg) => msg.len(),
    };
    ENTRY_OVERHEAD + 2 * (std::mem::size_of::<SatKey>() + 4 * key.assumptions.len()) + verdict_bytes
}

impl SolverCache {
    /// An empty, unbounded, in-memory cache.
    pub fn new() -> SolverCache {
        SolverCache::bounded(None)
    }

    /// An empty cache keeping its approximate verdict footprint under
    /// `budget` bytes (`None` = unbounded), divided evenly across the
    /// shards.
    pub fn bounded(budget: Option<usize>) -> SolverCache {
        let per_shard = budget.map(|b| (b / SHARDS).max(1));
        SolverCache {
            shards: Arc::new(
                (0..SHARDS)
                    .map(|_| {
                        Mutex::new(Inner {
                            budget: per_shard,
                            ..Inner::default()
                        })
                    })
                    .collect(),
            ),
            log: None,
            local: Arc::new(HandleCounters::default()),
        }
    }

    /// A cache backed by an on-disk snapshot log at `path`: existing records
    /// are replayed into the (budget-bounded) tables, the log is compacted —
    /// rewritten from the live entries, dropping duplicates, evicted records
    /// and any truncated tail — and every later [`store_valid`] /
    /// [`store_sat`] appends its record.
    ///
    /// [`store_valid`]: SolverCache::store_valid
    /// [`store_sat`]: SolverCache::store_sat
    ///
    /// # Errors
    ///
    /// I/O failures, and a snapshot whose version header names a schema this
    /// build does not speak (a truncated or partially written *tail* is not
    /// an error — replay keeps everything up to the damage).
    pub fn with_snapshot_file(
        path: impl AsRef<Path>,
        budget: Option<usize>,
    ) -> std::io::Result<(SolverCache, LoadStats)> {
        let path = path.as_ref();
        let mut cache = SolverCache::bounded(budget);
        let stats = match std::fs::read_to_string(path) {
            Ok(text) => cache
                .import_snapshot(&text)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => LoadStats::default(),
            Err(e) => return Err(e),
        };
        // Compact: rewrite the log from the live tables, atomically.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, cache.export_snapshot())?;
        std::fs::rename(&tmp, path)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        cache.log = Some(Arc::new(Mutex::new(file)));
        Ok((cache, stats))
    }

    /// A handle sharing this cache's tables but with **fresh** per-handle
    /// counters. Use one scope per logical run (the synthesizer takes one per
    /// instance): under the parallel evaluation harness many runs share one
    /// cache concurrently, and diffing the *global* counters would attribute
    /// every other worker's activity to this run. [`handle_stats`] reads the
    /// scope's own counters instead.
    ///
    /// [`handle_stats`]: SolverCache::handle_stats
    pub fn scoped(&self) -> SolverCache {
        SolverCache {
            shards: Arc::clone(&self.shards),
            log: self.log.clone(),
            local: Arc::new(HandleCounters::default()),
        }
    }

    /// Counters for this handle lineage only (see [`scoped`](Self::scoped)).
    pub fn handle_stats(&self) -> HandleStats {
        use std::sync::atomic::Ordering;
        HandleStats {
            hits: self.local.hits.load(Ordering::Relaxed),
            misses: self.local.misses.load(Ordering::Relaxed),
            interned_terms: self.local.interned.load(Ordering::Relaxed) as usize,
        }
    }

    /// Lock a shard, recovering from poisoning: every individual mutation
    /// (an intern, a table insert, an eviction sweep, a counter bump) leaves
    /// the state valid, so a panic that unwound through a locked section —
    /// which the parallel evaluation harness catches per benchmark — must
    /// not cascade into `ERR` rows for every later benchmark hashing to the
    /// same shard.
    fn lock_shard(&self, shard: usize) -> std::sync::MutexGuard<'_, Inner> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn record_lookup(&self, hit: bool, interned: usize) {
        use std::sync::atomic::Ordering;
        if hit {
            self.local.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.local.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.local
            .interned
            .fetch_add(interned as u64, Ordering::Relaxed);
    }

    /// Append one record line to the snapshot log, if one is attached.
    /// Called with no shard lock held; a write failure disables nothing —
    /// the record is simply lost from the snapshot (the verdict itself is
    /// already resident).
    fn append_log(&self, line: &str) {
        if let Some(log) = &self.log {
            let mut file = log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writeln!(file, "{line}");
        }
    }

    /// Look up a validity query. On a hit the cached verdict is returned; on a
    /// miss the interned key is returned so the caller can solve the query and
    /// [`store_valid`](SolverCache::store_valid) the verdict.
    ///
    /// # Errors
    ///
    /// The `Err` variant is the cache-miss key, not a failure.
    pub fn lookup_valid(
        &self,
        env: &SortingEnv,
        config_fp: u64,
        premises: &[Term],
        conclusion: &Term,
    ) -> Result<ValidityResult, ValidityKey> {
        let env_fp = fingerprint_env(env);
        let shard = shard_index(env_fp, config_fp, premises, Some(conclusion));
        let mut inner = self.lock_shard(shard);
        let arena_before = inner.arena.len();
        let mut premise_ids: Vec<TermId> = premises.iter().map(|p| inner.arena.intern(p)).collect();
        premise_ids.sort_unstable();
        premise_ids.dedup();
        let key = ValidityKey {
            shard,
            env_fp,
            config_fp,
            premises: premise_ids,
            conclusion: inner.arena.intern(conclusion),
        };
        let interned = inner.arena.len() - arena_before;
        match inner.valid.get_mut(&key) {
            Some(entry) => {
                entry.referenced = true;
                let hit = entry.verdict.clone();
                inner.hits += 1;
                drop(inner);
                self.record_lookup(true, interned);
                Ok(hit)
            }
            None => {
                inner.misses += 1;
                drop(inner);
                self.record_lookup(false, interned);
                Err(key)
            }
        }
    }

    /// Record the verdict for a previously missed validity query.
    /// `Cancelled` verdicts are dropped — they say nothing about the formula.
    pub fn store_valid(&self, key: ValidityKey, result: &ValidityResult) {
        if matches!(result, ValidityResult::Cancelled) {
            return;
        }
        let mut inner = self.lock_shard(key.shard);
        let cost = valid_entry_cost(&key, result);
        if let Some(prev) = inner.valid.insert(
            key.clone(),
            Entry {
                verdict: result.clone(),
                cost,
                referenced: false,
            },
        ) {
            inner.resident_bytes -= prev.cost;
        }
        inner.resident_bytes += cost;
        inner.clock.push_back(ClockRef::Valid(key.clone()));
        inner.evict_to_budget();
        let record = self
            .log
            .is_some()
            .then(|| persist::valid_record(&inner.arena, &key, result));
        drop(inner);
        if let Some(line) = record {
            self.append_log(&line);
        }
    }

    /// Look up a satisfiability query; see [`lookup_valid`](Self::lookup_valid).
    ///
    /// # Errors
    ///
    /// The `Err` variant is the cache-miss key, not a failure.
    pub fn lookup_sat(
        &self,
        env: &SortingEnv,
        config_fp: u64,
        assumptions: &[Term],
    ) -> Result<SatResult, SatKey> {
        let env_fp = fingerprint_env(env);
        let shard = shard_index(env_fp, config_fp, assumptions, None);
        let mut inner = self.lock_shard(shard);
        let arena_before = inner.arena.len();
        let mut ids: Vec<TermId> = assumptions.iter().map(|a| inner.arena.intern(a)).collect();
        ids.sort_unstable();
        ids.dedup();
        let key = SatKey {
            shard,
            env_fp,
            config_fp,
            assumptions: ids,
        };
        let interned = inner.arena.len() - arena_before;
        match inner.sat.get_mut(&key) {
            Some(entry) => {
                entry.referenced = true;
                let hit = entry.verdict.clone();
                inner.hits += 1;
                drop(inner);
                self.record_lookup(true, interned);
                Ok(hit)
            }
            None => {
                inner.misses += 1;
                drop(inner);
                self.record_lookup(false, interned);
                Err(key)
            }
        }
    }

    /// Record the verdict for a previously missed satisfiability query.
    /// `Cancelled` verdicts are dropped — they say nothing about the formula.
    pub fn store_sat(&self, key: SatKey, result: &SatResult) {
        if matches!(result, SatResult::Cancelled) {
            return;
        }
        let mut inner = self.lock_shard(key.shard);
        let cost = sat_entry_cost(&key, result);
        if let Some(prev) = inner.sat.insert(
            key.clone(),
            Entry {
                verdict: result.clone(),
                cost,
                referenced: false,
            },
        ) {
            inner.resident_bytes -= prev.cost;
        }
        inner.resident_bytes += cost;
        inner.clock.push_back(ClockRef::Sat(key.clone()));
        inner.evict_to_budget();
        let record = self
            .log
            .is_some()
            .then(|| persist::sat_record(&inner.arena, &key, result));
        drop(inner);
        if let Some(line) = record {
            self.append_log(&line);
        }
    }

    /// Insert a validity verdict replayed from a snapshot or an import. An
    /// existing entry wins (verdicts for one key are unique, so this only
    /// skips redundant work); returns whether the entry is new. Writes
    /// through to the attached log like a live store.
    pub(crate) fn insert_valid_replayed(
        &self,
        env_fp: u64,
        config_fp: u64,
        premises: &[Term],
        conclusion: &Term,
        verdict: &ValidityResult,
    ) -> bool {
        let shard = shard_index(env_fp, config_fp, premises, Some(conclusion));
        let mut inner = self.lock_shard(shard);
        let mut premise_ids: Vec<TermId> = premises.iter().map(|p| inner.arena.intern(p)).collect();
        premise_ids.sort_unstable();
        premise_ids.dedup();
        let key = ValidityKey {
            shard,
            env_fp,
            config_fp,
            premises: premise_ids,
            conclusion: inner.arena.intern(conclusion),
        };
        if inner.valid.contains_key(&key) {
            return false;
        }
        drop(inner);
        self.store_valid(key, verdict);
        true
    }

    /// The satisfiability twin of
    /// [`insert_valid_replayed`](Self::insert_valid_replayed).
    pub(crate) fn insert_sat_replayed(
        &self,
        env_fp: u64,
        config_fp: u64,
        assumptions: &[Term],
        verdict: &SatResult,
    ) -> bool {
        let shard = shard_index(env_fp, config_fp, assumptions, None);
        let mut inner = self.lock_shard(shard);
        let mut ids: Vec<TermId> = assumptions.iter().map(|a| inner.arena.intern(a)).collect();
        ids.sort_unstable();
        ids.dedup();
        let key = SatKey {
            shard,
            env_fp,
            config_fp,
            assumptions: ids,
        };
        if inner.sat.contains_key(&key) {
            return false;
        }
        drop(inner);
        self.store_sat(key, verdict);
        true
    }

    /// Serialize every live verdict entry as a snapshot document (version
    /// header plus one record line per entry) — the format
    /// [`with_snapshot_file`](Self::with_snapshot_file) reads and the
    /// `cache_export` wire request returns.
    pub fn export_snapshot(&self) -> String {
        let mut out = persist::header_line();
        out.push('\n');
        for shard in 0..self.shards.len() {
            let inner = self.lock_shard(shard);
            for (key, entry) in &inner.valid {
                out.push_str(&persist::valid_record(&inner.arena, key, &entry.verdict));
                out.push('\n');
            }
            for (key, entry) in &inner.sat {
                out.push_str(&persist::sat_record(&inner.arena, key, &entry.verdict));
                out.push('\n');
            }
        }
        out
    }

    /// Replay a snapshot document into this cache (see [`crate::persist`]
    /// for tolerance rules). Already-present entries are kept, budget
    /// enforcement applies, and replayed records write through to the
    /// attached log, if any.
    ///
    /// # Errors
    ///
    /// A missing or unsupported version header, or a malformed record body
    /// before the final line (only a *trailing* partial line is tolerated as
    /// a crash artifact).
    pub fn import_snapshot(&self, text: &str) -> Result<LoadStats, String> {
        persist::replay(self, text)
    }

    /// Current counters, aggregated over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in 0..self.shards.len() {
            let inner = self.lock_shard(shard);
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.interned_terms += inner.arena.len();
            stats.validity_entries += inner.valid.len();
            stats.sat_entries += inner.sat.len();
            stats.evictions += inner.evictions;
            stats.resident_bytes += inner.resident_bytes;
        }
        stats
    }
}

/// Fingerprint an entire sorting environment: variable sorts, measure
/// signatures and unknown declarations. Two environments with the same
/// fingerprint produce identical solver behavior for every query (modulo hash
/// collisions over the full 64-bit space).
fn fingerprint_env(env: &SortingEnv) -> u64 {
    let mut h = DefaultHasher::new();
    for (name, sort) in env.vars() {
        "v".hash(&mut h);
        name.hash(&mut h);
        sort.hash(&mut h);
    }
    for (name, sig) in env.measures() {
        "m".hash(&mut h);
        name.hash(&mut h);
        sig.args.hash(&mut h);
        sig.result.hash(&mut h);
    }
    for (name, sort) in env.unknowns() {
        "u".hash(&mut h);
        name.hash(&mut h);
        sort.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::{Sort, Term};

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("x", Sort::Int).bind_var("y", Sort::Int);
        e
    }

    #[test]
    fn miss_then_store_then_hit() {
        let cache = SolverCache::new();
        let premises = [Term::var("x").lt(Term::var("y"))];
        let goal = Term::var("x").le(Term::var("y"));
        let key = match cache.lookup_valid(&env(), 0, &premises, &goal) {
            Err(key) => key,
            Ok(_) => panic!("empty cache cannot hit"),
        };
        cache.store_valid(key, &ValidityResult::Valid);
        assert!(matches!(
            cache.lookup_valid(&env(), 0, &premises, &goal),
            Ok(ValidityResult::Valid)
        ));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.validity_entries, 1);
        assert!(stats.interned_terms > 0);
        assert!(stats.resident_bytes > 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn premise_order_is_canonicalized() {
        let cache = SolverCache::new();
        let p1 = Term::var("x").ge(Term::int(0));
        let p2 = Term::var("y").ge(Term::int(1));
        let goal = Term::var("x").le(Term::var("y"));
        let key = cache
            .lookup_valid(&env(), 0, &[p1.clone(), p2.clone()], &goal)
            .unwrap_err();
        cache.store_valid(key, &ValidityResult::Valid);
        // Permuted (and duplicated) premises hit the same entry.
        assert!(cache
            .lookup_valid(&env(), 0, &[p2.clone(), p1.clone(), p2], &goal)
            .is_ok());
    }

    #[test]
    fn different_environments_do_not_alias() {
        let cache = SolverCache::new();
        let goal = Term::var("x").le(Term::var("y"));
        let key = cache.lookup_valid(&env(), 0, &[], &goal).unwrap_err();
        cache.store_valid(key, &ValidityResult::Valid);
        let mut other = env();
        other.bind_var("x", Sort::Bool);
        assert!(cache.lookup_valid(&other, 0, &[], &goal).is_err());
    }

    #[test]
    fn scoped_handles_share_tables_but_not_counters() {
        let cache = SolverCache::new();
        let goal = Term::var("x").le(Term::var("y"));
        let key = cache.lookup_valid(&env(), 0, &[], &goal).unwrap_err();
        cache.store_valid(key, &ValidityResult::Valid);

        // A scoped handle starts with zeroed counters but sees the verdict.
        let scope = cache.scoped();
        assert_eq!(scope.handle_stats(), HandleStats::default());
        assert!(scope.lookup_valid(&env(), 0, &[], &goal).is_ok());
        let scope_stats = scope.handle_stats();
        assert_eq!((scope_stats.hits, scope_stats.misses), (1, 0));

        // The original handle's counters did not absorb the scope's lookup,
        // but the global table counters did.
        assert_eq!(cache.handle_stats().hits, 0);
        assert_eq!(cache.handle_stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);

        // Plain clones keep attributing to the same lineage.
        let sibling = scope.clone();
        assert!(sibling.lookup_valid(&env(), 0, &[], &goal).is_ok());
        assert_eq!(scope.handle_stats().hits, 2);
    }

    #[test]
    fn clones_share_the_same_table() {
        let cache = SolverCache::new();
        let clone = cache.clone();
        let goal = Term::var("x").ge(Term::int(0));
        let key = cache
            .lookup_sat(&env(), 0, std::slice::from_ref(&goal))
            .unwrap_err();
        cache.store_sat(key, &SatResult::Unsat);
        assert!(matches!(
            clone.lookup_sat(&env(), 0, &[goal]),
            Ok(SatResult::Unsat)
        ));
    }

    #[test]
    fn cancelled_verdicts_are_never_resident() {
        let cache = SolverCache::new();
        let goal = Term::var("x").le(Term::var("y"));
        let key = cache.lookup_valid(&env(), 0, &[], &goal).unwrap_err();
        cache.store_valid(key, &ValidityResult::Cancelled);
        assert!(cache.lookup_valid(&env(), 0, &[], &goal).is_err());
        assert_eq!(cache.stats().validity_entries, 0);
    }

    /// Distinct single-premise queries, one per index.
    fn nth_query(i: i64) -> (Vec<Term>, Term) {
        (
            vec![Term::var("x").ge(Term::int(i))],
            Term::var("x").ge(Term::int(i - 1)),
        )
    }

    #[test]
    fn budget_bounds_resident_bytes_with_evictions() {
        // Small enough to force evictions well before 400 entries, large
        // enough that each of the 16 shards can hold at least one entry.
        let budget = 16 * 1024;
        let cache = SolverCache::bounded(Some(budget));
        for i in 0..400 {
            let (premises, goal) = nth_query(i);
            let key = cache.lookup_valid(&env(), 0, &premises, &goal).unwrap_err();
            cache.store_valid(key, &ValidityResult::Valid);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
        assert!(
            stats.resident_bytes <= budget,
            "resident {} exceeds budget {budget}",
            stats.resident_bytes
        );
        // Evicted or not, every resident answer is still correct, and
        // evicted queries simply miss again.
        let mut hits = 0;
        for i in 0..400 {
            let (premises, goal) = nth_query(i);
            if let Ok(verdict) = cache.lookup_valid(&env(), 0, &premises, &goal) {
                assert!(matches!(verdict, ValidityResult::Valid));
                hits += 1;
            }
        }
        assert!(hits > 0, "a bounded cache must retain something");
    }

    #[test]
    fn second_chance_spares_referenced_entries() {
        // One shard's slice of this budget fits a handful of entries. Keep
        // hitting entry 0 while inserting others: the clock must evict the
        // cold ones first.
        let cache = SolverCache::bounded(Some(SHARDS * 1024));
        let (hot_premises, hot_goal) = nth_query(0);
        let key = cache
            .lookup_valid(&env(), 0, &hot_premises, &hot_goal)
            .unwrap_err();
        cache.store_valid(key, &ValidityResult::Valid);
        for i in 1..200 {
            let (premises, goal) = nth_query(i);
            if let Err(key) = cache.lookup_valid(&env(), 0, &premises, &goal) {
                cache.store_valid(key, &ValidityResult::Valid);
            }
            // Refresh the hot entry's referenced bit.
            assert!(
                cache
                    .lookup_valid(&env(), 0, &hot_premises, &hot_goal)
                    .is_ok(),
                "hot entry evicted at iteration {i}"
            );
        }
        assert!(cache.stats().evictions > 0);
    }
}
