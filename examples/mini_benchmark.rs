//! A miniature end-to-end benchmark campaign: the full 12-setup matrix
//! over all four queries at reduced scale, rendered as the paper's
//! figures.
//!
//! ```sh
//! cargo run --release --example mini_benchmark
//! ```

use std::error::Error;
use streambench_core::{report, BenchConfig, BenchmarkRunner, Query};

fn main() -> Result<(), Box<dyn Error>> {
    let config = BenchConfig::default().records(10_000).runs(2);
    println!(
        "mini benchmark: {} records, {} runs per setup, parallelisms {:?}\n",
        config.records, config.runs, config.parallelisms
    );
    let runner = BenchmarkRunner::new(config);

    let mut all = Vec::new();
    for query in Query::ALL {
        let measurements = runner.run_query(query)?;
        let rows = report::average_times(&measurements, query);
        println!(
            "{}",
            report::render_bars(
                &format!("Average execution times — {query} query"),
                &rows,
                "s"
            )
        );
        all.extend(measurements);
    }

    for query in Query::ALL {
        let rows = report::slowdown_factors(&all, query);
        println!(
            "{}",
            report::render_bars(&format!("Slowdown factor sf(dsps, {query})"), &rows, "x")
        );
    }
    Ok(())
}
