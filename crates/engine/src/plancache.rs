//! A byte/entry-budgeted LRU cache of compiled + rewritten plans.
//!
//! The cache is **per engine** and deliberately not `Send`: plans hold
//! `Rc`-based `QName`/`AtomicValue` data, so they cannot cross threads.
//! What *can* cross threads is plain data about a shape — the
//! [`crate::service::SharedPlanRegistry`] shares canonical hashes between
//! service workers, and each worker re-hydrates the plan into its own
//! engine cache (one compile per worker per shape, then hash-lookup).
//!
//! Entries are keyed two levels deep:
//!
//! * a **text key** (FNV over the query text plus every compile option
//!   that affects the plan: mode and rule config) resolves in one hash
//!   lookup on the hot path, and
//! * the **canonical plan hash** (from [`xqr_core::canon`], computed after
//!   compile + rewrite + canonicalization) is the entry's identity, so
//!   syntactic variants that normalize to the same plan — renamed
//!   variables, flipped comparisons — share one entry via an alias from
//!   their text key.
//!
//! Eviction is least-recently-used over both budgets (`max_entries`,
//! `max_bytes` of *estimated* plan size); every eviction is recorded in
//! the process metrics (`plan_cache_evictions`).

use std::collections::HashMap;
use std::rc::Rc;

use xqr_core::{CompiledModule, RewriteStats};
use xqr_frontend::CoreModule;
use xqr_xml::metrics::metrics;

/// Tuning for an engine's plan cache.
#[derive(Clone, Debug)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans (0 disables caching outright).
    pub max_entries: usize,
    /// Budget of *estimated* plan bytes (0 disables caching outright).
    pub max_bytes: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> PlanCacheConfig {
        PlanCacheConfig {
            max_entries: 256,
            max_bytes: 32 << 20,
        }
    }
}

/// The immutable compilation artifact a cache entry shares between
/// [`crate::PreparedQuery`] instances (via `Rc`, never deep-cloned).
pub struct CachedPlan {
    /// The normalized Core module (kept for `NoAlgebra` executions).
    pub core: Option<Rc<CoreModule>>,
    /// The compiled + rewritten + canonicalized plan (algebra modes).
    pub plan: Option<Rc<CompiledModule>>,
    pub stats: Option<Rc<RewriteStats>>,
    /// Canonical plan hash ([`xqr_core::canon::module_hash`]); for
    /// `NoAlgebra` a hash of the query text stands in.
    pub canonical_hash: u64,
    /// Estimated retained size (plan ops ≈ 200 bytes each + query text).
    pub estimated_bytes: usize,
}

struct Entry {
    plan: Rc<CachedPlan>,
    last_used: u64,
}

/// The per-engine LRU (see module docs).
pub struct PlanCache {
    cfg: PlanCacheConfig,
    /// Canonical hash → entry: the entry's identity.
    entries: HashMap<u64, Entry>,
    /// Text key → canonical hash: the hot-path alias.
    aliases: HashMap<u64, u64>,
    bytes: usize,
    tick: u64,
}

impl PlanCache {
    pub fn new(cfg: PlanCacheConfig) -> PlanCache {
        PlanCache {
            cfg,
            entries: HashMap::new(),
            aliases: HashMap::new(),
            bytes: 0,
            tick: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.max_entries > 0 && self.cfg.max_bytes > 0
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated bytes currently retained.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Looks up by text key, bumping recency on a hit.
    pub fn get(&mut self, text_key: u64) -> Option<Rc<CachedPlan>> {
        if !self.enabled() {
            return None;
        }
        let canon = *self.aliases.get(&text_key)?;
        let e = self.entries.get_mut(&canon)?;
        self.tick += 1;
        e.last_used = self.tick;
        Some(Rc::clone(&e.plan))
    }

    /// Inserts a freshly compiled plan under its text key. If an entry
    /// with the same canonical hash already exists (a syntactic variant
    /// was cached first), the existing entry is kept and aliased — the
    /// shared plan is returned so the caller adopts the canonical one.
    pub fn insert(&mut self, text_key: u64, plan: Rc<CachedPlan>) -> Rc<CachedPlan> {
        if !self.enabled() {
            return plan;
        }
        let canon = plan.canonical_hash;
        self.tick += 1;
        let shared = match self.entries.get_mut(&canon) {
            Some(existing) => {
                existing.last_used = self.tick;
                Rc::clone(&existing.plan)
            }
            None => {
                self.bytes += plan.estimated_bytes;
                self.entries.insert(
                    canon,
                    Entry {
                        plan: Rc::clone(&plan),
                        last_used: self.tick,
                    },
                );
                plan
            }
        };
        self.aliases.insert(text_key, canon);
        self.evict_to_budget(canon);
        shared
    }

    /// Evicts least-recently-used entries until both budgets hold,
    /// sparing `just_inserted` (a fresh entry larger than the whole byte
    /// budget is still cached until something else arrives; refusing it
    /// would make `prepare_cached` silently uncacheable).
    fn evict_to_budget(&mut self, just_inserted: u64) {
        while self.entries.len() > self.cfg.max_entries.max(1)
            || (self.bytes > self.cfg.max_bytes && self.entries.len() > 1)
        {
            let Some((&victim, _)) = self
                .entries
                .iter()
                .filter(|(k, _)| **k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let e = self.entries.remove(&victim).expect("victim exists");
            self.bytes = self.bytes.saturating_sub(e.plan.estimated_bytes);
            self.aliases.retain(|_, c| *c != victim);
            metrics().record_plan_cache_eviction();
        }
    }

    /// Drops every entry (document/schema rebinding invalidates nothing —
    /// plans reference documents by URI at execution time — but callers
    /// that want a cold cache, e.g. benchmarks, use this).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.aliases.clear();
        self.bytes = 0;
    }
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(PlanCacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(canon: u64, bytes: usize) -> Rc<CachedPlan> {
        Rc::new(CachedPlan {
            core: None,
            plan: None,
            stats: None,
            canonical_hash: canon,
            estimated_bytes: bytes,
        })
    }

    #[test]
    fn hit_after_insert_and_alias_sharing() {
        let mut c = PlanCache::default();
        assert!(c.get(1).is_none());
        c.insert(1, plan(100, 10));
        assert_eq!(c.get(1).unwrap().canonical_hash, 100);
        // A different text key with the same canonical hash shares the entry.
        let shared = c.insert(2, plan(100, 10));
        assert_eq!(shared.canonical_hash, 100);
        assert_eq!(c.len(), 1);
        assert!(c.get(2).is_some());
    }

    #[test]
    fn entry_budget_evicts_lru() {
        let mut c = PlanCache::new(PlanCacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        c.insert(1, plan(101, 1));
        c.insert(2, plan(102, 1));
        c.get(1); // 101 is now more recent than 102
        c.insert(3, plan(103, 1));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some(), "recently used survives");
        assert!(c.get(2).is_none(), "LRU victim evicted");
        assert!(c.get(3).is_some());
    }

    #[test]
    fn byte_budget_evicts_and_accounts() {
        let mut c = PlanCache::new(PlanCacheConfig {
            max_entries: usize::MAX,
            max_bytes: 25,
        });
        c.insert(1, plan(101, 10));
        c.insert(2, plan(102, 10));
        c.insert(3, plan(103, 10));
        assert!(c.bytes() <= 25, "bytes {} over budget", c.bytes());
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn oversized_entry_still_cached_alone() {
        let mut c = PlanCache::new(PlanCacheConfig {
            max_entries: 8,
            max_bytes: 5,
        });
        c.insert(1, plan(101, 100));
        assert_eq!(c.len(), 1, "sole oversized entry is kept");
        c.insert(2, plan(102, 1));
        assert!(
            c.get(1).is_none(),
            "evicted once a fit-in-budget entry arrives"
        );
        assert!(c.get(2).is_some());
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = PlanCache::new(PlanCacheConfig {
            max_entries: 0,
            ..PlanCacheConfig::default()
        });
        c.insert(1, plan(101, 1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }
}
