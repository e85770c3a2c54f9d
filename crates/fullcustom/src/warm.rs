//! Session-scoped persistence of winning synthesis seeds.
//!
//! A serve daemon (or any long-lived caller) keeps one [`WarmStore`] and
//! threads the [`SynthSeed`] won by each synthesis back in, so the next
//! layout request for the same module — typically after a small ECO edit
//! — warm-starts from the prior solution instead of annealing from
//! scratch.
//!
//! Seeds are keyed by (module name, technology revision): an edited
//! module keeps its name, and the seed survives precisely because the
//! fingerprint changed — [`crate::synthesize_seeded`] revalidates the
//! seed against the new tile set, so a stale seed degrades to a cold
//! start, never to a wrong layout.

use maestro_netlist::{Memo, MemoStats};

use crate::synthesize::SynthSeed;

/// Entry cap of a [`WarmStore`].
const WARM_CAPACITY: usize = 1024;

/// Bounded map of the most recent winning seed per (module name,
/// technology revision), reporting as `fullcustom.warm`.
#[derive(Debug)]
pub struct WarmStore(Memo<(String, u64), SynthSeed>);

impl Default for WarmStore {
    fn default() -> Self {
        WarmStore::new()
    }
}

impl WarmStore {
    /// An empty store.
    pub fn new() -> Self {
        WarmStore(Memo::new("fullcustom.warm", WARM_CAPACITY))
    }

    /// The stored seed for a module under a technology revision, if any.
    pub fn get(&self, module_name: &str, tech_revision: u64) -> Option<SynthSeed> {
        self.0.get(&(module_name.to_owned(), tech_revision))
    }

    /// Stores (or replaces) a module's winning seed.
    pub fn put(&self, module_name: &str, tech_revision: u64, seed: SynthSeed) {
        self.0.insert((module_name.to_owned(), tech_revision), seed);
    }

    /// Hit/miss/eviction/entry counters.
    pub fn stats(&self) -> MemoStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::{synthesize_seeded, SynthesisParams};
    use maestro_netlist::library_circuits;
    use maestro_tech::builtin;

    fn seed_for(stages: usize) -> SynthSeed {
        let m = library_circuits::pass_chain(stages);
        let (_, seed) =
            synthesize_seeded(&m, &builtin::nmos25(), &SynthesisParams::quick(), None).unwrap();
        seed
    }

    #[test]
    fn round_trips_and_keys_by_name_and_revision() {
        let store = WarmStore::new();
        let seed = seed_for(3);
        store.put("chain", 7, seed.clone());
        assert_eq!(store.get("chain", 7), Some(seed));
        assert_eq!(store.get("chain", 8), None);
        assert_eq!(store.get("other", 7), None);
    }
}
