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
    match id {
        "table2" => println!("{}", sim::table2()),
        "table4" => println!("{}", sim::table4()),
        "fig5a" => println!("{}", sim::fig5a()),
        "fig5b" => println!("{}", sim::fig5b()),
        "fig5c" => println!("{}", sim::fig5c()),
        "table5" => println!("{}", sim::table5()),
        "table6" => println!("{}", sim::table6()),
        "fig6b" => println!("{}", sim::fig6b()),
        "fig7" => println!("{}", sim::fig7()),
        "table7" => println!("{}", sim::table7()),
        "fig10" => println!("{}", sim::fig10()),
        "round45" => println!("{}", sim::round45_note()),
        _ => return false,
    }
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
        match *id {
            "table8" => println!("{}", real_experiments::table8(&world)),
            "fig11" => println!("{}", real_experiments::fig11(&world)),
            "table9_10" => println!("{}", real_experiments::table9_10(&world)),
            "substrate" => println!("{}", real_experiments::substrate(&world)),
            "fig6a" => println!("{}", real_experiments::fig6a(&world)),
            other => unreachable!("{other} is not in REAL_IDS"),
        }
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
            "all" | "sim" => {
                for id in SIM_IDS {
                    print_sim(id);
                }
                if arg == "all" {
                    reals.extend(REAL_IDS);
                }
            }
            "real" => reals.extend(REAL_IDS),
            id if REAL_IDS.contains(&id) => reals.push(id),
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
