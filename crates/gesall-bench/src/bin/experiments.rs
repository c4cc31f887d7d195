//! The experiment harness binary: regenerates every table and figure of
//! the paper's evaluation.
//!
//! ```text
//! cargo run -p gesall-bench --release --bin experiments -- <id | all | sim | real>
//! ```
//!
//! ids: table2 table4 fig5a fig5b fig5c table5 table6 fig6a fig6b fig7
//!      table7 fig10 table8 fig11 table9_10

use gesall_bench::real_experiments::{self, ExperimentWorld, Scale};
use gesall_bench::sim_experiments as sim;

fn print_sim(id: &str) -> bool {
    let report = match id {
        "table2" => sim::table2(),
        "table4" => sim::table4(),
        "fig5a" => sim::fig5a(),
        "fig5b" => sim::fig5b(),
        "fig5c" => sim::fig5c(),
        "table5" => sim::table5(),
        "table6" => sim::table6(),
        "fig6b" => sim::fig6b(),
        "fig7" => sim::fig7(),
        "table7" => sim::table7(),
        "fig10" => sim::fig10(),
        "round45" => sim::round45_note(),
        _ => return false,
    };
    println!("{report}");
    true
}

fn run_real(ids: &[&str]) {
    eprintln!("[experiments] building mini-scale world and running serial + parallel pipelines...");
    let t0 = std::time::Instant::now();
    let world = ExperimentWorld::run(Scale::standard());
    eprintln!(
        "[experiments] world ready in {:.1}s ({} pairs, {} bp genome)",
        t0.elapsed().as_secs_f64(),
        world.pairs.len(),
        world.genome.total_len()
    );
    for id in ids {
        let report = match *id {
            "table8" => real_experiments::table8(&world),
            "fig11" => real_experiments::fig11(&world),
            "table9_10" => real_experiments::table9_10(&world),
            "substrate" => real_experiments::substrate(&world),
            "fig6a" => real_experiments::fig6a(&world),
            other => {
                eprintln!("unknown real experiment {other}");
                continue;
            }
        };
        println!("{report}");
    }
}

const SIM_IDS: &[&str] = &[
    "table2", "table4", "fig5a", "fig5b", "fig5c", "table5", "table6", "fig6b", "fig7",
    "table7", "fig10", "round45",
];
const REAL_IDS: &[&str] = &["fig6a", "table8", "fig11", "table9_10", "substrate"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <id|all|sim|real> ...");
        eprintln!("sim ids:  {SIM_IDS:?}");
        eprintln!("real ids: {REAL_IDS:?}");
        std::process::exit(2);
    }
    let mut reals: Vec<&str> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => {
                for id in SIM_IDS {
                    print_sim(id);
                }
                reals.extend(REAL_IDS);
            }
            "sim" => {
                for id in SIM_IDS {
                    print_sim(id);
                }
            }
            "real" => reals.extend(REAL_IDS),
            id if REAL_IDS.contains(&id) => {
                let owned = REAL_IDS.iter().find(|r| **r == id).unwrap();
                reals.push(owned);
            }
            id => {
                if !print_sim(id) {
                    eprintln!("unknown experiment id {id:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    if !reals.is_empty() {
        reals.dedup();
        run_real(&reals);
    }
}
