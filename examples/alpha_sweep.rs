//! QoS-slack ablation: the paper fixes Eq. 3's alpha to 1 (no slack) and
//! notes it "can be used to relax the QoS constraint". This sweep shows how
//! energy savings grow as the constraint is relaxed — expressed as one
//! declarative campaign whose specs all share a single memoized idle
//! baseline and run in parallel.
//!
//! Run with: `cargo run --release --example alpha_sweep`

use triad::phasedb::{build_apps, DbConfig};
use triad::rm::RmKind;
use triad::sim::{Campaign, ExperimentSpec};

fn main() {
    let names = ["libquantum", "mcf"];
    // The suite is built once and borrowed; the database build takes an
    // owned subset.
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    println!("building database for {:?}...", names);
    let db = build_apps(&apps, &DbConfig::default());

    let alphas = [1.0, 1.05, 1.1, 1.2];
    let specs: Vec<ExperimentSpec> = alphas
        .iter()
        .flat_map(|&alpha| {
            [RmKind::Rm2, RmKind::Rm3].map(|rm| {
                ExperimentSpec::new(format!("alpha{alpha}/{}", rm.label()), &names)
                    .rm(Some(rm))
                    .perfect()
                    .alpha(alpha)
            })
        })
        .collect();
    let rows = Campaign::new(specs).run(&db);

    println!("\n{:<8} {:>12} {:>12}", "alpha", "RM2 savings", "RM3 savings");
    for (i, &alpha) in alphas.iter().enumerate() {
        let rm2 = &rows[2 * i];
        let rm3 = &rows[2 * i + 1];
        println!("{:<8} {:>11.1}% {:>11.1}%", alpha, 100.0 * rm2.savings, 100.0 * rm3.savings);
    }
    println!("\nalpha > 1 lets the RM trade bounded slowdown for extra savings;");
    println!("the paper fixes alpha = 1 throughout its evaluation.");
}
