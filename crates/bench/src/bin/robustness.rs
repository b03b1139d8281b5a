//! Regenerates the robustness extension: query success and
//! re-convergence under injected message loss and host crashes.
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin robustness
//! cargo run --release -p bcc-bench --bin robustness -- --paper
//! cargo run --release -p bcc-bench --bin robustness -- --json robustness.json
//! ```
//!
//! `--json <path>` additionally writes the full grid as figure-style JSON
//! (`-` for stdout).

use bcc_bench::{banner, BenchArgs, Effort};
use bcc_eval::{run_robustness, RobustnessConfig};

fn main() {
    let args = BenchArgs::from_env();
    let effort = Effort::from_args();
    banner("Robustness (fault injection: loss × crashes)", effort);

    let cfg = match effort {
        Effort::Fast => RobustnessConfig::fast(),
        Effort::Standard => {
            let mut cfg = RobustnessConfig::standard();
            cfg.size = 60;
            cfg.trials = 2;
            cfg.queries_per_trial = 16;
            cfg
        }
        Effort::Paper => RobustnessConfig::standard(),
    };

    let start = std::time::Instant::now();
    let result = run_robustness(&cfg);
    for table in result.tables() {
        println!("{}", table.render());
        println!("{}", table.render_chart(12));
    }
    println!(
        "hosts = {}, trials/cell = {}, queries/trial = {}, k = {}, elapsed = {:.1?}",
        cfg.size,
        cfg.trials,
        cfg.queries_per_trial,
        cfg.k,
        start.elapsed()
    );

    if let Some(path) = args.value_or("--json", "-") {
        let json = result.to_json();
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, json).expect("write JSON output");
            println!("wrote {path}");
        }
    }
}
