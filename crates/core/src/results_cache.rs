//! Result memoization above the resolve-once
//! [`StatsCache`](maestro_netlist::StatsCache) layer.
//!
//! The [`StatsCache`](maestro_netlist::StatsCache) memoizes the *setup*
//! cost (module scan + technology queries); this cache memoizes the full
//! per-module estimation *result* — the [`EstimateRecord`] with its
//! standard-cell estimate, aspect sweep and full-custom estimate — keyed
//! by module content, technology revision, and a digest of the
//! estimation parameters. In an ECO edit loop a re-estimation of a
//! 96-module chip with one edited module then pays estimation cost for
//! exactly one module; the other 95 come straight out of this memo.
//!
//! Like the stats layer, the memo is a bounded [`Memo`]: a streaming
//! million-module run evicts least-recently-used entries in batches
//! instead of growing without limit, and it reports as
//! `estimate.results.{hits,misses,evictions}`.

use std::sync::Arc;

use maestro_netlist::{Memo, MemoStats, ModuleFingerprint};

use crate::report::EstimateRecord;
use crate::standard_cell::ScParams;

/// Cache key: module content × technology revision × parameter digest.
pub type ResultsKey = (ModuleFingerprint, u64, u64);

/// Entry cap of a [`ResultsCache`].
const RESULTS_CAPACITY: usize = 8192;

/// FNV-1a digest of every estimation parameter that can change a
/// module's [`EstimateRecord`] under a fixed technology. Two pipelines
/// with equal digests produce byte-identical records for the same
/// (module, technology) pair.
pub fn params_digest(params: &ScParams) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    match params.rows {
        Some(rows) => {
            word(1);
            word(u64::from(rows));
        }
        None => word(0),
    }
    word(u64::from(params.max_rows));
    h
}

/// Bounded concurrent memo of per-module estimation results.
///
/// # Examples
///
/// ```
/// use maestro_estimator::results_cache::{params_digest, ResultsCache};
/// use maestro_estimator::standard_cell::ScParams;
/// use maestro_estimator::EstimateRecord;
/// use maestro_netlist::{generate, ModuleFingerprint};
///
/// let cache = ResultsCache::new();
/// let m = generate::counter(3);
/// let key = (ModuleFingerprint::of(&m), 0, params_digest(&ScParams::default()));
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, EstimateRecord {
///     module_name: m.name().to_owned(),
///     standard_cell: None,
///     full_custom: None,
///     standard_cell_candidates: Vec::new(),
/// });
/// assert!(cache.get(&key).is_some());
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct ResultsCache(Memo<ResultsKey, Arc<EstimateRecord>>);

impl Default for ResultsCache {
    fn default() -> Self {
        ResultsCache::new()
    }
}

impl ResultsCache {
    /// An empty cache reporting as `estimate.results`.
    pub fn new() -> Self {
        ResultsCache(Memo::new("estimate.results", RESULTS_CAPACITY))
    }

    /// Looks up a memoized record, counting a hit or a miss.
    pub fn get(&self, key: &ResultsKey) -> Option<Arc<EstimateRecord>> {
        self.0.get(key)
    }

    /// Memoizes a record. Re-inserting an existing key replaces its
    /// record.
    pub fn insert(&self, key: ResultsKey, record: EstimateRecord) {
        self.0.insert(key, Arc::new(record));
    }

    /// Hit/miss/eviction/entry counters.
    pub fn stats(&self) -> MemoStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::generate;

    fn record(name: &str) -> EstimateRecord {
        EstimateRecord {
            module_name: name.to_owned(),
            standard_cell: None,
            full_custom: None,
            standard_cell_candidates: Vec::new(),
        }
    }

    fn key_of(i: u64) -> ResultsKey {
        let m = generate::counter(3);
        (ModuleFingerprint::of(&m), i, 0)
    }

    #[test]
    fn get_after_insert_hits_and_shares_the_arc() {
        let cache = ResultsCache::new();
        let key = key_of(0);
        assert!(cache.get(&key).is_none());
        cache.insert(key, record("a"));
        let one = cache.get(&key).expect("cached");
        let two = cache.get(&key).expect("cached");
        assert!(Arc::ptr_eq(&one, &two));
        assert_eq!(
            cache.stats(),
            MemoStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn params_digest_separates_every_field() {
        let base = ScParams::default();
        let explicit = ScParams {
            rows: Some(4),
            ..base
        };
        let other_rows = ScParams {
            rows: Some(5),
            ..base
        };
        let capped = ScParams {
            max_rows: base.max_rows + 1,
            ..base
        };
        let digests = [
            params_digest(&base),
            params_digest(&explicit),
            params_digest(&other_rows),
            params_digest(&capped),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in digests.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(params_digest(&base), params_digest(&ScParams::default()));
    }
}
