//! One module per experiment; ids match the README's "Paper experiments"
//! table and the committed `results/<id>.md` reports.

pub mod e01_alg1_theorem21;
pub mod e02_phase1_growth;
pub mod e03_phase2_fraction;
pub mod e04_phase3_rounds;
pub mod e05_gnp_diameter;
pub mod e06_gossip;
pub mod e07_general_broadcast;
pub mod e08_tradeoff;
pub mod e09_figure1;
pub mod e10_obs43;
pub mod e11_thm44;
pub mod e12_cor45;
pub mod e13_comparisons;
pub mod e14_ablations;
pub mod e15_geometric;
pub mod e16_robustness;
pub mod e17_energy_lifetime;
pub mod e18_scale;

use crate::{Ctx, Report};

/// An experiment entry point.
pub type Runner = fn(&Ctx) -> Report;

/// All experiments, in order, as `(id, runner)`.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1", e01_alg1_theorem21::run),
        ("e2", e02_phase1_growth::run),
        ("e3", e03_phase2_fraction::run),
        ("e4", e04_phase3_rounds::run),
        ("e5", e05_gnp_diameter::run),
        ("e6", e06_gossip::run),
        ("e7", e07_general_broadcast::run),
        ("e8", e08_tradeoff::run),
        ("e9", e09_figure1::run),
        ("e10", e10_obs43::run),
        ("e11", e11_thm44::run),
        ("e12", e12_cor45::run),
        ("e13", e13_comparisons::run),
        ("e14", e14_ablations::run),
        ("e15", e15_geometric::run),
        ("e16", e16_robustness::run),
        ("e17", e17_energy_lifetime::run),
        ("e18", e18_scale::run),
        ("e18i", e18_scale::run_implicit),
    ]
}
