//! Experiment configuration: scales, the attack set, seeds.
//!
//! The healer and adversary registries live in `core::spec`
//! ([`HealerSpec`](selfheal_core::spec::HealerSpec) and [`AdversarySpec`]),
//! so the experiment harness names exactly the same strategies a `.scn`
//! spec file does.

use selfheal_core::spec::AdversarySpec;

/// Preset sizes/trial-counts.
///
/// `Full` follows the paper's methodology (30 random graph instances per
/// size); `Quick` is a CI-sized smoke version of every experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes, few trials — finishes in seconds.
    Quick,
    /// Paper-sized: 30 trials per configuration.
    Full,
}

impl Scale {
    /// Graph sizes for the degree/message experiments (Figs. 8 and 9).
    pub fn degree_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128, 256],
            Scale::Full => vec![64, 128, 256, 512, 1024, 2048, 4096],
        }
    }

    /// Graph sizes for the stretch experiment (Fig. 10; APSP-heavy).
    pub fn stretch_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![32, 64, 128],
            Scale::Full => vec![64, 128, 256, 512, 1024],
        }
    }

    /// Trials (random graph instances) per size.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 30,
        }
    }

    /// LEVELATTACK depths to sweep.
    pub fn lowerbound_depths(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![2, 3, 4],
            Scale::Full => vec![2, 3, 4, 5, 6],
        }
    }
}

/// The Barabási–Albert attachment parameter used throughout the paper's
/// experiments ("random power-law graphs by preferential attachment").
pub const BA_ATTACHMENT: usize = 3;

/// The single-victim attacks the attack tables compare: the paper's two
/// plus this reproduction's extensions, in table order.
pub const ATTACKS: [AdversarySpec; 5] = [
    AdversarySpec::MaxNode,
    AdversarySpec::NeighborOfMax,
    AdversarySpec::Random,
    AdversarySpec::MinDegree,
    AdversarySpec::CutVertex,
];

/// Derive a per-trial seed from a base seed, size and trial index so each
/// trial is independent but the whole sweep is reproducible.
pub fn trial_seed(base: u64, n: usize, trial: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((n as u64) << 20)
        .wrapping_add(trial as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_shapes() {
        assert!(Scale::Quick.trials() < Scale::Full.trials());
        assert!(Scale::Quick.degree_sizes().len() < Scale::Full.degree_sizes().len());
        assert!(!Scale::Full.stretch_sizes().is_empty());
        assert!(!Scale::Quick.lowerbound_depths().is_empty());
    }

    #[test]
    fn trial_seeds_differ() {
        let a = trial_seed(1, 64, 0);
        let b = trial_seed(1, 64, 1);
        let c = trial_seed(1, 128, 0);
        let d = trial_seed(2, 64, 0);
        assert!(a != b && a != c && a != d);
        assert_eq!(a, trial_seed(1, 64, 0));
    }
}
