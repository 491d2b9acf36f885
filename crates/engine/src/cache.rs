//! The compiled-netlist cache: validate + topo-sort + compile the
//! CA-RNG netlist once per process and share it across every pack.
//!
//! Every bitsim pack runs the CA-RNG netlist in two forms: the full one
//! for the seed-load edge and its `ctl = consume` specialisation for
//! streaming. Compilation is lane-width-blind, so each form is one
//! compile-once cell. The hit/miss counters feed `netlist_cache_hits` /
//! `_misses` in `BENCH_serve.json`: at most two misses per process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use ga_synth::gadesign::elaborate_ca_rng;
use ga_synth::CompiledNetlist;

/// The two compiled forms of the CA-RNG netlist, with hit/miss
/// accounting. A cold cell compiles under [`OnceLock`], so concurrent
/// first requests wait for one compile instead of racing their own.
pub struct NetlistCache {
    full: OnceLock<CompiledNetlist>,
    consume: OnceLock<CompiledNetlist>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NetlistCache {
    /// An empty cache; production code uses [`global_cache`].
    fn new() -> Self {
        NetlistCache {
            full: OnceLock::new(),
            consume: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The full CA-RNG netlist: the seed-load edge runs on it.
    pub fn ca_rng(&self) -> &CompiledNetlist {
        self.get(&self.full, || {
            CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG netlist compiles")
        })
    }

    /// The CA-RNG netlist specialised for streaming: `ctl` tied to
    /// `consume` (`ctl[0]` = seed_load low, `ctl[1]` = consume high),
    /// which folds both register-input muxes away and leaves the
    /// rule-90/150 XOR network alone. Same nets and registers as
    /// [`NetlistCache::ca_rng`].
    pub fn ca_rng_consume(&self) -> &CompiledNetlist {
        self.get(&self.consume, || {
            let full = self.ca_rng();
            let ctl = full.input_bus("ctl").expect("ctl bus");
            full.specialize(&[(ctl[0], false), (ctl[1], true)])
        })
    }

    /// Read `cell`, compiling it with `build` on the first request.
    fn get<'a>(
        &self,
        cell: &'a OnceLock<CompiledNetlist>,
        build: impl FnOnce() -> CompiledNetlist,
    ) -> &'a CompiledNetlist {
        let mut built = false;
        let netlist = cell.get_or_init(|| {
            built = true;
            build()
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        netlist
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The process-wide compiled-netlist cache, shared by every backend.
pub fn global_cache() -> &'static NetlistCache {
    static CACHE: OnceLock<NetlistCache> = OnceLock::new();
    CACHE.get_or_init(NetlistCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_ca() -> CompiledNetlist {
        CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG compiles")
    }

    #[test]
    fn first_request_misses_then_hits() {
        let cache = NetlistCache::new();
        let a: *const CompiledNetlist = cache.ca_rng();
        assert_eq!(cache.counters(), (0, 1));
        let b: *const CompiledNetlist = cache.ca_rng();
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(a, b, "a hit returns the cached artifact");
    }

    #[test]
    fn each_design_compiles_once() {
        // The consume form builds from the full one (a miss, then a hit
        // inside it); every later request of either form is a hit.
        let cache = NetlistCache::new();
        cache.ca_rng_consume();
        assert_eq!(cache.counters(), (0, 2));
        for _ in 0..5 {
            cache.ca_rng();
            cache.ca_rng_consume();
        }
        assert_eq!(cache.counters(), (10, 2));
    }

    #[test]
    fn cache_hits_are_byte_identical_to_cold_compiles() {
        // The artifact a hit returns must be indistinguishable from a
        // compile done from scratch: same instruction stream, same
        // registers, same bus maps. Debug formatting covers every field.
        let cache = NetlistCache::new();
        cache.ca_rng();
        let hit = cache.ca_rng();
        let cold = compile_ca();
        assert_eq!(format!("{hit:?}"), format!("{cold:?}"));
        let ctl = cold.input_bus("ctl").expect("ctl bus");
        let consume = cold.specialize(&[(ctl[0], false), (ctl[1], true)]);
        assert_eq!(
            format!("{:?}", cache.ca_rng_consume()),
            format!("{consume:?}")
        );
    }

    #[test]
    fn concurrent_cold_requests_compile_once() {
        let cache = NetlistCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cache.ca_rng_consume());
            }
        });
        assert_eq!(cache.counters(), (3, 2), "no compile race");
    }
}
