//! Experiment implementations (see DESIGN.md §4 for the index).
//!
//! Each experiment is a function from a [`Scale`] to a report
//! [`mcc_analysis::Section`]; binaries print the section and
//! `reproduce_all` collects them into `target/report/`.

pub mod adversary;
pub mod alpha;
pub mod bench;
pub mod breakdown;
pub mod classic;
pub mod epoch;
pub mod fault_adversary;
pub mod faults;
pub mod figs_offline;
pub mod figs_online;
pub mod hetero;
pub mod policies;
pub mod predictability;
pub mod prediction;
pub mod ratio_sweep;
pub mod scaling;
pub mod tables;

/// Experiment sizing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Seeds per cell.
    pub seeds: u64,
    /// Requests per generated instance.
    pub requests: usize,
    /// Servers per generated instance.
    pub servers: usize,
}

impl Scale {
    /// Test-sized: completes in well under a second per experiment.
    pub fn quick() -> Self {
        Scale {
            seeds: 4,
            requests: 60,
            servers: 4,
        }
    }

    /// Gate-sized: big enough that per-unit work dominates thread spawn
    /// overhead (the quick grid's 12 tiny units would be
    /// scheduling-bound on a multicore runner), small enough for a CI
    /// re-measure. Used by the sweep suite's parallel-efficiency gate.
    pub fn gate() -> Self {
        Scale {
            seeds: 8,
            requests: 400,
            servers: 8,
        }
    }

    /// Report-sized: what the binaries run by default.
    pub fn full() -> Self {
        Scale {
            seeds: 100,
            requests: 2_000,
            servers: 16,
        }
    }

    /// Picks the scale from process arguments (`--quick` anywhere selects
    /// the test size).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::quick().seeds < Scale::full().seeds);
        assert!(Scale::quick().requests < Scale::full().requests);
        assert!(Scale::quick().requests < Scale::gate().requests);
        assert!(Scale::gate().requests < Scale::full().requests);
    }
}
