//! Fleet configuration: how many items, what they draw their parameters
//! from, and how server capacity is enforced.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mcc_workloads::distributions::ParamDist;

/// Domain-separation salts for the per-item seed derivations: parameter
/// draws and trace generation must never share an RNG stream, or a
/// distribution change would silently reshuffle every trace.
const PARAM_SALT: u64 = 0x666c_6565_745f_7061; // "fleet_pa"
const TRACE_SALT: u64 = 0x666c_6565_745f_7472; // "fleet_tr"

/// SplitMix64 finalizer over `(seed, item, salt)`: a cheap, well-mixed,
/// stable mapping from item index to an independent 64-bit stream seed.
fn mix(seed: u64, item: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_add(item.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What happens when an item needs a slot on a full server.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum EvictionPolicy {
    /// No eviction: over-capacity admissions are admitted, counted and
    /// reported as [`mcc_simnet::AuditFinding::CapacityViolation`]s.
    None,
    /// Evict the resident whose copy goes longest unused (LRU by the
    /// interval's recorded last touch — the sweep is post-hoc, so the
    /// recorded touch is available, landlord-style) and charge `price`
    /// per eviction into the fleet cost model as its own cost class.
    Lru {
        /// Cost charged per eviction (`charged == evictions × price`).
        price: f64,
    },
}

/// One fleet run's full configuration. `Copy`, comparable and cheap to
/// pass around; [`FleetSpec::validate`] is the single gate every entry
/// point (library, CLI, bench) funnels through.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Number of independent items (one SC instance each).
    pub items: usize,
    /// Servers `m` shared by every item.
    pub servers: usize,
    /// Requests per item's trace.
    pub requests_per_item: usize,
    /// Poisson arrival rate of each item's trace.
    pub rate: f64,
    /// Distribution the per-item caching rate μ is drawn from.
    pub mu: ParamDist,
    /// Distribution the per-item transfer charge λ is drawn from.
    pub lambda: ParamDist,
    /// Master seed; every per-item stream derives from it.
    pub seed: u64,
    /// Per-server slot budget (`None` = unbounded, capacity phase skipped).
    pub capacity: Option<usize>,
    /// What to do when a slot is requested on a full server.
    pub eviction: EvictionPolicy,
    /// Worker threads for the simulation phase and capacity sweepers
    /// (`0` = hardware threads).
    pub threads: usize,
    /// Whether every item's run is verified by the streaming auditor
    /// (`true`, the default — per-item finding counts land in the
    /// `audit_findings` column). `false` selects the sim-only throughput
    /// regime: no auditor runs, the findings column reads all zeros, and
    /// every cost/ratio/transfer stays bit-identical (the audit is pure
    /// observation). Capacity accounting is independent of this flag.
    pub audit: bool,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            items: 1024,
            servers: 8,
            requests_per_item: 16,
            rate: 1.0,
            mu: ParamDist::Fixed(1.0),
            lambda: ParamDist::Fixed(1.0),
            seed: 0,
            capacity: None,
            eviction: EvictionPolicy::None,
            threads: 1,
            audit: true,
        }
    }
}

impl FleetSpec {
    /// Checks the spec describes a runnable fleet.
    pub fn validate(&self) -> Result<(), String> {
        if self.items > u32::MAX as usize {
            return Err(format!("items {} exceeds the 2^32−1 cap", self.items));
        }
        if self.servers == 0 {
            return Err("servers must be at least 1".into());
        }
        if self.requests_per_item == 0 {
            return Err("requests-per-item must be at least 1".into());
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(format!(
                "rate must be positive and finite, got {}",
                self.rate
            ));
        }
        self.mu.validate().map_err(|e| format!("mu: {e}"))?;
        self.lambda.validate().map_err(|e| format!("lambda: {e}"))?;
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return Err("capacity must be at least 1 slot".into());
            }
        }
        if let EvictionPolicy::Lru { price } = self.eviction {
            if !(price.is_finite() && price >= 0.0) {
                return Err(format!(
                    "eviction price must be finite and non-negative, got {price}"
                ));
            }
            if self.capacity.is_none() {
                return Err("an eviction policy needs a capacity to enforce".into());
            }
        }
        Ok(())
    }

    /// The `(μ, λ)` drawn for `item` — deterministic per
    /// `(spec.seed, item)` and independent of every other item, which is
    /// what makes fleet results bit-identical to running each item as its
    /// own [`mcc_simnet::RunRequest`] unit.
    pub fn item_params(&self, item: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, item, PARAM_SALT));
        let mu = self.mu.sample(&mut rng);
        let lambda = self.lambda.sample(&mut rng);
        (mu, lambda)
    }

    /// The trace seed for `item` (a separate stream from the parameter
    /// draw, so changing a distribution never reshuffles the traces).
    pub fn trace_seed(&self, item: u64) -> u64 {
        mix(self.seed, item, TRACE_SALT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(FleetSpec::default().validate(), Ok(()));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let base = FleetSpec::default();
        for (label, spec) in [
            ("servers", FleetSpec { servers: 0, ..base }),
            (
                "requests",
                FleetSpec {
                    requests_per_item: 0,
                    ..base
                },
            ),
            ("rate", FleetSpec { rate: 0.0, ..base }),
            (
                "mu",
                FleetSpec {
                    mu: ParamDist::Fixed(-1.0),
                    ..base
                },
            ),
            (
                "capacity",
                FleetSpec {
                    capacity: Some(0),
                    ..base
                },
            ),
            (
                "price",
                FleetSpec {
                    capacity: Some(4),
                    eviction: EvictionPolicy::Lru { price: f64::NAN },
                    ..base
                },
            ),
            (
                "eviction-without-capacity",
                FleetSpec {
                    eviction: EvictionPolicy::Lru { price: 1.0 },
                    ..base
                },
            ),
        ] {
            assert!(spec.validate().is_err(), "{label} should be rejected");
        }
    }

    #[test]
    fn item_params_are_deterministic_and_item_independent() {
        let spec = FleetSpec {
            mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
            lambda: ParamDist::Exp { mean: 1.0 },
            seed: 42,
            ..FleetSpec::default()
        };
        for item in [0u64, 1, 7, 1_000_000] {
            assert_eq!(spec.item_params(item), spec.item_params(item));
            assert!(spec.item_params(item).0 > 0.0);
            assert!(spec.item_params(item).1 > 0.0);
        }
        assert_ne!(spec.item_params(0), spec.item_params(1));
        assert_ne!(spec.trace_seed(0), spec.trace_seed(1));
        // Parameter and trace streams are domain-separated.
        assert_ne!(spec.trace_seed(3), mix(spec.seed, 3, PARAM_SALT));
    }

    #[test]
    fn distribution_change_does_not_reshuffle_traces() {
        let a = FleetSpec::default();
        let b = FleetSpec {
            mu: ParamDist::Exp { mean: 2.0 },
            ..a
        };
        for item in 0..16 {
            assert_eq!(a.trace_seed(item), b.trace_seed(item));
        }
    }
}
