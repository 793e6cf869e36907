//! A validity/satisfiability query cache over hash-consed terms.
//!
//! The synthesizer's round-robin search discharges thousands of near-identical
//! subtyping and resource obligations: candidate programs share long prefixes,
//! so the same `Γ ⊨ ψ` query is re-proved over and over. A [`SolverCache`]
//! interns every query into one [`TermArena`] and memoizes the solver's
//! verdict keyed on the interned ids, so a structurally equal query issued by
//! any later candidate — from the type checker or the CEGIS loop — is
//! answered without touching the decision procedures.
//!
//! One table holds both query kinds. A satisfiability query of `premises` and
//! a validity query `premises ⟹ conclusion` differ only in the key's
//! `conclusion`, and both store a satisfiability verdict (for a validity
//! query, that of `premises ∧ ¬conclusion`).
//!
//! A validity query the table misses is first tried against the
//! counterexamples of the cache's last [`WITNESSES`] `Sat` validity verdicts
//! (see [`crate::witness`]). One that satisfies the query *refutes* it: its
//! `Sat` verdict is stored as if the solver had computed it, and the solver
//! is not run. A refuted query still counts as a miss.
//!
//! [`WITNESSES`]: crate::witness::WITNESSES
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
//! * **Entries never change kind.** The *kind* of a verdict
//!   (`Sat`, `Unsat`, `Unknown`) is a function of the key: the solver decides
//!   it from (environment, configuration, query) alone, and a refutation
//!   answers `Sat` only where the solver cannot answer `Unsat`. A `Sat`
//!   verdict's model is *a* counterexample, not necessarily the one DPLL(T)
//!   would build: a refuted query stores the model of the witness that
//!   refuted it, which depends on the queries before it. A hit is always
//!   safe to use, so the table can be shared freely across solver instances,
//!   checker runs and CEGIS iterations (satisfiability queries, which CEGIS
//!   reads models from, are never refuted). A stored verdict stays resident
//!   for the cache's lifetime.
//! * **Premise order is canonicalized.** Keys sort and deduplicate the
//!   premise ids (conjunction is order-insensitive), so permuted premise
//!   lists hit the same entry.
//!
//! The cache is cheaply cloneable (an [`Arc`]) and internally synchronized
//! by one lock; clones share one logical table and one set of counters.
//! [`CacheStats::resident_bytes`] approximates the table's footprint (keys,
//! verdicts, table overhead; the intern arena is not metered).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use resyn_logic::{Conj, FxHashMap, Model, SortingEnv, Term, TermArena, TermId, Value};

use crate::smt::{SatResult, SolverEnv};
use crate::witness::Witnesses;

/// Counters describing a cache (see [`SolverCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups not answered from the table: solved or refuted.
    pub misses: u64,
    /// Misses refuted by a recent counterexample instead of solved.
    pub refuted: u64,
    /// Distinct terms in the cache's intern arena.
    pub interned_terms: usize,
    /// Cached validity verdicts.
    pub validity_entries: usize,
    /// Cached satisfiability verdicts.
    pub sat_entries: usize,
    /// Approximate bytes of resident verdict entries (keys + verdicts +
    /// table overhead; the intern arena is not metered).
    pub resident_bytes: usize,
    /// `Unknown` verdicts stored: solver misses that gave up (work limit or
    /// unsupported construct) rather than answered.
    pub unknowns: u64,
}

/// Key of a pending query (returned by a miss, consumed by
/// [`SolverCache::store`]). A validity query carries its conclusion; a
/// satisfiability query carries none.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    env_fp: u64,
    config_fp: u64,
    premises: Vec<TermId>,
    conclusion: Option<TermId>,
}

/// What [`SolverCache::lookup`] found.
#[derive(Debug)]
pub(crate) enum Lookup<R> {
    /// The table held the verdict; this is what the caller made of it.
    Hit(R),
    /// The table missed, but a recent counterexample satisfies the query:
    /// its `Sat` verdict is now stored, and this is what the caller made of
    /// it.
    Refuted(R),
    /// Neither: solve the query and store its verdict under this key.
    Miss(QueryKey),
}

#[derive(Debug, Default)]
struct Inner {
    arena: TermArena,
    table: FxHashMap<QueryKey, SatResult>,
    /// Approximate bytes of the table's entries ([`key_cost`] plus
    /// [`verdict_cost`] each).
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    refuted: u64,
    unknowns: u64,
    /// Counterexamples of the last solved `Sat` validity verdicts.
    witnesses: Witnesses,
}

impl Inner {
    /// Store `verdict` under `key`.
    fn insert(&mut self, key: QueryKey, verdict: SatResult) {
        let key_bytes = key_cost(&key);
        self.resident_bytes += key_bytes + verdict_cost(&verdict);
        if let Some(prev) = self.table.insert(key, verdict) {
            // A query stored twice replaces its entry.
            self.resident_bytes -= key_bytes + verdict_cost(&prev);
        }
    }
}

/// A shared, in-memory cache of solver verdicts keyed on interned queries.
#[derive(Debug, Clone, Default)]
pub struct SolverCache {
    inner: Arc<Mutex<Inner>>,
}

/// Fixed per-entry overhead charged on top of the key and verdict payloads:
/// a hash-map slot and allocator slack. Deliberately coarse.
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

fn verdict_cost(verdict: &SatResult) -> usize {
    match verdict {
        SatResult::Unsat | SatResult::Cancelled => 0,
        SatResult::Sat(m) => model_cost(m),
        SatResult::Unknown(msg) => msg.len(),
    }
}

fn key_cost(key: &QueryKey) -> usize {
    ENTRY_OVERHEAD + std::mem::size_of::<QueryKey>() + 4 * key.premises.len()
}

impl SolverCache {
    /// An empty cache.
    pub fn new() -> SolverCache {
        SolverCache::default()
    }

    /// Lock the table, recovering from poisoning: every individual mutation
    /// (an intern, a table insert, a counter bump) leaves the state valid,
    /// so a panic that unwound through a locked section — which
    /// `resyn_gen::differential` catches per mode while the modes share one
    /// cache — must not turn every later run on the same cache into a
    /// panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up the satisfiability of `path ∧ premises` (`conclusion: None`)
    /// or the satisfiability of `path ∧ premises ∧ ¬conclusion` that decides
    /// the validity of `path ∧ premises ⟹ conclusion`, under `env`. The
    /// path condition is one premise, interned through its memo
    /// ([`TermArena::intern_conj`]): a path this arena already interned up
    /// to its last fact costs nothing. On a hit `read` is applied to the cached verdict in place. A validity
    /// query the table misses is tried against the recent counterexamples;
    /// one that satisfies it is stored as the query's `Sat` verdict and read.
    /// Otherwise the interned key is returned so the caller can solve the
    /// query and [`store`](SolverCache::store) the verdict.
    pub(crate) fn lookup<R>(
        &self,
        env: &SolverEnv,
        config_fp: u64,
        path: Option<&Conj>,
        premises: &[Term],
        conclusion: Option<&Term>,
        read: impl FnOnce(&SatResult) -> R,
    ) -> Lookup<R> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let arena = &mut inner.arena;
        let mut premise_ids: Vec<TermId> = path.map(|p| arena.intern_conj(p)).into_iter().collect();
        premise_ids.extend(premises.iter().map(|p| arena.intern(p)));
        premise_ids.sort_unstable();
        premise_ids.dedup();
        let key = QueryKey {
            env_fp: env.fingerprint(),
            config_fp,
            premises: premise_ids,
            conclusion: conclusion.map(|c| arena.intern(c)),
        };
        if let Some(verdict) = inner.table.get(&key) {
            inner.hits += 1;
            Lookup::Hit(read(verdict))
        } else {
            inner.misses += 1;
            let counterexample = key.conclusion.and_then(|conclusion| {
                inner.witnesses.refute(
                    &inner.arena,
                    env.env(),
                    key.env_fp,
                    &key.premises,
                    conclusion,
                )
            });
            match counterexample {
                Some(model) => {
                    let verdict = SatResult::Sat(model.clone());
                    let out = read(&verdict);
                    inner.refuted += 1;
                    inner.insert(key, verdict);
                    Lookup::Refuted(out)
                }
                None => Lookup::Miss(key),
            }
        }
    }

    /// Record the verdict for a previously missed query. `Cancelled`
    /// verdicts are dropped — they say nothing about the formula. The model
    /// of a `Sat` validity verdict becomes the newest witness.
    pub(crate) fn store(&self, key: QueryKey, result: &SatResult) {
        if result.is_cancelled() {
            return;
        }
        let mut inner = self.lock();
        inner.unknowns += u64::from(matches!(result, SatResult::Unknown(_)));
        if let (SatResult::Sat(model), Some(_)) = (result, key.conclusion) {
            inner.witnesses.push(model.clone());
        }
        inner.insert(key, result.clone());
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let validity_entries = inner
            .table
            .keys()
            .filter(|k| k.conclusion.is_some())
            .count();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            refuted: inner.refuted,
            interned_terms: inner.arena.len(),
            validity_entries,
            sat_entries: inner.table.len() - validity_entries,
            resident_bytes: inner.resident_bytes,
            unknowns: inner.unknowns,
        }
    }
}

/// Fingerprint an entire sorting environment: variable sorts, measure
/// signatures and unknown declarations. Two environments with the same
/// fingerprint produce identical solver behavior for every query (modulo hash
/// collisions over the full 64-bit space).
pub(crate) fn fingerprint_env(env: &SortingEnv) -> u64 {
    let mut h = DefaultHasher::new();
    for (name, sort) in env.vars() {
        "v".hash(&mut h);
        name.hash(&mut h);
        sort.hash(&mut h);
    }
    "m".hash(&mut h);
    env.measures_fingerprint().hash(&mut h);
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
    use crate::smt::{Solver, ValidityResult};
    use resyn_logic::{Sort, Term};

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("x", Sort::Int).bind_var("y", Sort::Int);
        e
    }

    /// Look up `premises` (and `conclusion`) under `env` with no path
    /// condition, cloning a hit or a refutation.
    fn lookup_in(
        cache: &SolverCache,
        env: &SortingEnv,
        premises: &[Term],
        conclusion: Option<&Term>,
    ) -> Result<SatResult, QueryKey> {
        match cache.lookup(
            &SolverEnv::new(env.clone()),
            0,
            None,
            premises,
            conclusion,
            SatResult::clone,
        ) {
            Lookup::Hit(verdict) | Lookup::Refuted(verdict) => Ok(verdict),
            Lookup::Miss(key) => Err(key),
        }
    }

    /// Look up `premises ⟹ goal` and, on a miss, store it as valid.
    fn prove(cache: &SolverCache, premises: &[Term], goal: &Term) {
        if let Err(key) = lookup_in(cache, &env(), premises, Some(goal)) {
            cache.store(key, &SatResult::Unsat);
        }
    }

    #[test]
    fn miss_then_store_then_hit() {
        let cache = SolverCache::new();
        let premises = [Term::var("x").lt(Term::var("y"))];
        let goal = Term::var("x").le(Term::var("y"));
        let key = match lookup_in(&cache, &env(), &premises, Some(&goal)) {
            Err(key) => key,
            Ok(_) => panic!("empty cache cannot hit"),
        };
        cache.store(key, &SatResult::Unsat);
        assert!(matches!(
            lookup_in(&cache, &env(), &premises, Some(&goal)),
            Ok(SatResult::Unsat)
        ));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.validity_entries, stats.sat_entries), (1, 0));
        assert!(stats.interned_terms > 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn premise_order_is_canonicalized() {
        let cache = SolverCache::new();
        let p1 = Term::var("x").ge(Term::int(0));
        let p2 = Term::var("y").ge(Term::int(1));
        let goal = Term::var("x").le(Term::var("y"));
        prove(&cache, &[p1.clone(), p2.clone()], &goal);
        // Permuted (and duplicated) premises hit the same entry.
        assert!(lookup_in(&cache, &env(), &[p2.clone(), p1.clone(), p2], Some(&goal)).is_ok());
    }

    #[test]
    fn different_environments_do_not_alias() {
        let cache = SolverCache::new();
        let goal = Term::var("x").le(Term::var("y"));
        prove(&cache, &[], &goal);
        let mut other = env();
        other.bind_var("x", Sort::Bool);
        assert!(lookup_in(&cache, &other, &[], Some(&goal)).is_err());
    }

    #[test]
    fn validity_and_satisfiability_queries_do_not_alias() {
        // `[] ⟹ x ≥ 0` and the satisfiability of `[x ≥ 0]` share every
        // interned term but are different questions.
        let cache = SolverCache::new();
        let goal = Term::var("x").ge(Term::int(0));
        prove(&cache, &[], &goal);
        let key = lookup_in(&cache, &env(), std::slice::from_ref(&goal), None).unwrap_err();
        cache.store(key, &SatResult::Unknown("test".to_string()));
        assert!(matches!(
            lookup_in(&cache, &env(), &[], Some(&goal)),
            Ok(SatResult::Unsat)
        ));
        let stats = cache.stats();
        assert_eq!((stats.validity_entries, stats.sat_entries), (1, 1));
    }

    #[test]
    fn unknown_verdicts_are_counted_once_per_give_up() {
        let cache = SolverCache::new();
        let solver = Solver::new(env()).with_cache(cache.clone());
        // An unknown predicate makes the solver give up.
        let undecided = Term::unknown("U0");
        assert!(matches!(
            solver.check_sat(std::slice::from_ref(&undecided)),
            SatResult::Unknown(_)
        ));
        // A hit on the stored `Unknown` is not a second give-up.
        assert!(matches!(
            solver.check_sat(std::slice::from_ref(&undecided)),
            SatResult::Unknown(_)
        ));
        prove(
            &cache,
            &[Term::var("x").lt(Term::var("y"))],
            &Term::var("x").le(Term::var("y")),
        );
        // A solved query is no give-up either.
        assert_eq!(cache.stats().unknowns, 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
    }

    #[test]
    fn clones_share_the_same_table() {
        let cache = SolverCache::new();
        let clone = cache.clone();
        let goal = Term::var("x").ge(Term::int(0));
        let key = lookup_in(&cache, &env(), std::slice::from_ref(&goal), None).unwrap_err();
        cache.store(key, &SatResult::Unsat);
        assert!(matches!(
            lookup_in(&clone, &env(), &[goal], None),
            Ok(SatResult::Unsat)
        ));
    }

    #[test]
    fn cancelled_verdicts_are_never_resident() {
        let cache = SolverCache::new();
        let goal = Term::var("x").le(Term::var("y"));
        let key = lookup_in(&cache, &env(), &[], Some(&goal)).unwrap_err();
        cache.store(key, &SatResult::Cancelled);
        assert!(lookup_in(&cache, &env(), &[], Some(&goal)).is_err());
        assert_eq!(cache.stats().validity_entries, 0);
    }

    #[test]
    fn a_shared_premise_is_interned_once() {
        // 64 validity queries under one large path condition, differing
        // only in their conclusion: the premise's nodes belong in the arena
        // once, not once per query or per table partition.
        let premise = (0..40).fold(Term::var("x").ge(Term::int(0)), |acc, i| {
            acc.and((Term::var("y") + Term::int(i)).le(Term::var("x").times(2)))
        });
        let conclusions: Vec<Term> = (0..64)
            .map(|i| (Term::var("x") + Term::var("y")).ge(Term::int(-i)))
            .collect();
        let cache = SolverCache::new();
        let mut distinct = TermArena::new();
        distinct.intern(&premise);
        for goal in &conclusions {
            prove(&cache, std::slice::from_ref(&premise), goal);
            distinct.intern(goal);
        }
        let stats = cache.stats();
        assert_eq!(stats.validity_entries, 64);
        assert_eq!(stats.interned_terms, distinct.len());
    }

    #[test]
    fn a_refuted_query_is_a_counted_miss_and_then_a_hit() {
        let cache = SolverCache::new();
        let solver = Solver::new(env()).with_cache(cache.clone());
        // Solved: `x ≤ y` is not valid, and its counterexample becomes a
        // witness.
        let ValidityResult::Invalid(counterexample) =
            solver.check_valid(&[], &Term::var("x").le(Term::var("y")))
        else {
            panic!("x ≤ y is not valid");
        };
        // Refuted: the same model falsifies `x < y` under `x ≠ y`.
        let premises = [Term::var("x").neq(Term::var("y"))];
        let goal = Term::var("x").lt(Term::var("y"));
        assert_eq!(
            solver.check_valid(&premises, &goal),
            ValidityResult::Invalid(counterexample.clone())
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.refuted), (0, 2, 1));
        assert_eq!(stats.validity_entries, 2);
        // The stored verdict answers the same query again.
        assert!(!solver.is_valid(&premises, &goal));
        assert_eq!(
            solver.check_valid(&premises, &goal),
            ValidityResult::Invalid(counterexample)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.refuted), (2, 2, 1));
    }

    #[test]
    fn satisfiability_queries_neither_refute_nor_seed() {
        let cache = SolverCache::new();
        let solver = Solver::new(env()).with_cache(cache.clone());
        // A satisfiability model is no witness: the validity query it would
        // refute is solved.
        let x_above_y = Term::var("x").gt(Term::var("y"));
        assert!(matches!(
            solver.check_sat(std::slice::from_ref(&x_above_y)),
            SatResult::Sat(_)
        ));
        assert!(!solver.is_valid(&[], &Term::var("x").le(Term::var("y"))));
        assert_eq!(cache.stats().refuted, 0);
        // A validity counterexample refutes no satisfiability query it
        // satisfies.
        assert!(matches!(
            solver.check_sat(&[x_above_y, Term::var("x").ge(Term::int(-1000))]),
            SatResult::Sat(_)
        ));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.refuted), (3, 0));
    }
}
