//! The paper's future-work experiment: profile-variation robustness of
//! the four treegion heuristics (schedule with training profile, evaluate
//! under a perturbed profile).
//!
//! Run with: `cargo run --example profile_variation --release`

use treegion_suite::eval::{variation_table, Suite};
use treegion_suite::prelude::*;

fn main() {
    let suite = Suite::load();
    let m4 = MachineModel::model_4u();
    for strength in [0.0, 0.25, 0.5, 1.0] {
        print!(
            "{}",
            variation_table(&suite.modules, &m4, strength).render()
        );
        println!();
    }
}
