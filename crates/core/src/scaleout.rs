//! The scale-out search: max sustainable throughput per
//! (engine, SDK, parallelism) cell, found by binary search
//! ([`crate::config::Trials::Search`]).
//!
//! Where [`crate::latency`] sweeps a *fixed* list of offered rates to
//! chart the latency curve, this module asks the scalability question
//! directly: *what is the highest open-loop rate each cell can sustain,
//! and how does that ceiling move as parallelism grows?* Each probe is
//! one [`latency`](crate::latency) trial — fresh sharded broker, the
//! input topic partitioned to the cell's parallelism, the open-loop
//! sender key-hash-routing records through the shared producer
//! partitioner ([`crate::sender::send_open_loop_partitioned`]), and the
//! engine's consumer group splitting those partitions across its
//! parallel sources. The sustainable/overloaded verdict is the same
//! coordinated-omission-safe classifier the latency sweep uses
//! (p99 bound plus drain ratio).
//!
//! The search is geometric: rates span orders of magnitude, so the
//! midpoint of `[lo, hi]` is `sqrt(lo * hi)`, not the arithmetic mean.
//! The ceiling is probed first — a cell that sustains it reports the
//! ceiling — then the floor — a cell that sustains neither edge reports
//! `None` — then the bracket halves (geometrically) for the configured
//! rounds or until the bracket is within 5 %. The reported maximum is
//! the highest rate that actually produced a sustainable trial, never an
//! interpolation.

use crate::config::CampaignConfig;
use crate::latency::{run_trial, LatencyTrial};
use crate::runner::BenchError;
use crate::setup::Setup;

/// Binary-searches one cell's max sustainable rate over
/// `[min_rate, max_rate]`, returning every probe in probe order
/// (ceiling, floor, then bisections).
pub(crate) fn search(
    config: &CampaignConfig,
    setup: Setup,
    min_rate: f64,
    max_rate: f64,
    iters: u32,
) -> Result<Vec<LatencyTrial>, BenchError> {
    let mut span = obs::span("scaleout.cell");
    span.field("setup", setup.to_string());
    let mut probes = Vec::new();
    let probe = |rate: f64, probes: &mut Vec<LatencyTrial>| -> Result<bool, BenchError> {
        let trial = run_trial(config, setup, rate)?;
        let sustainable = trial.sustainable;
        probes.push(trial);
        Ok(sustainable)
    };

    // Ceiling first: sustaining it ends the search — the true maximum
    // is at or beyond the bracket edge, and the ceiling is the best
    // answer the bracket allows. Probing the ceiling before the floor
    // also keeps cells with *inverted* low-rate behaviour honest: the
    // beamline rill translation's flush-at-end bundling makes slow
    // trials run long enough to blow the p99 bound while fast ones
    // pass (see EXPERIMENTS.md, latency appendix), and the max
    // sustainable rate is defined by the highest sustainable probe, not
    // by the floor.
    if probe(max_rate, &mut probes)? {
        span.field("max_sustainable", format!("{max_rate}"));
        return Ok(probes);
    }
    // Floor next: a cell that sustains neither bracket edge reports no
    // sustainable throughput.
    if max_rate <= min_rate || !probe(min_rate, &mut probes)? {
        span.field("max_sustainable", "none".to_string());
        return Ok(probes);
    }
    let mut lo = min_rate;
    let mut hi = max_rate;
    for _ in 0..iters {
        // Geometric midpoint: rates span orders of magnitude.
        let mid = (lo * hi).sqrt();
        if mid <= lo * 1.05 || mid * 1.05 >= hi {
            break;
        }
        if probe(mid, &mut probes)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    span.field("max_sustainable", format!("{lo}"));
    Ok(probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Trials;
    use crate::latency::{run_latency, LatencyCell, LatencyReport};
    use crate::setup::{Api, System};

    fn probe(rate: f64, sustainable: bool) -> LatencyTrial {
        LatencyTrial {
            offered_rate: rate,
            output_records: 100,
            measured: 90,
            p50_micros: 100,
            p95_micros: 200,
            p99_micros: 300,
            p999_micros: 400,
            max_micros: 500,
            mean_micros: 150.0,
            drain_ratio: 0.9,
            max_send_lag_micros: 10,
            output_ok: true,
            sustainable,
        }
    }

    fn rill_cell(api: Api, probes: Vec<LatencyTrial>) -> LatencyCell {
        LatencyCell {
            setup: Setup {
                system: System::Rill,
                api,
                parallelism: 4,
            },
            trials: probes,
        }
    }

    #[test]
    fn json_schema_has_cells_probes_and_max_rate() {
        let report = LatencyReport {
            config: CampaignConfig::scaleout(),
            cells: vec![
                rill_cell(Api::Native, vec![probe(500.0, true), probe(8_000.0, true)]),
                rill_cell(Api::Beam, vec![probe(500.0, false)]),
            ],
        };
        let json = report.to_json();
        for key in [
            "\"query\":\"identity\"",
            "\"min_rate\":500",
            "\"max_rate\":64000",
            "\"system\":\"rill\"",
            "\"sdk\":\"native\"",
            "\"sdk\":\"beam\"",
            "\"parallelism\":4",
            "\"max_sustainable_rate\":8000",
            "\"max_sustainable_rate\":null",
            "\"probes\":[",
            "\"sustainable\":true",
            "\"sustainable\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn empty_bracket_or_parallelisms_is_an_error() {
        let bad = CampaignConfig {
            parallelisms: vec![],
            ..CampaignConfig::scaleout()
        };
        assert!(run_latency(&bad).is_err());
        let bad = CampaignConfig {
            trials: Trials::Search {
                min_rate: 1_000.0,
                max_rate: 500.0,
                iters: 5,
            },
            ..CampaignConfig::scaleout()
        };
        assert!(run_latency(&bad).is_err());
        let bad = CampaignConfig {
            cells: vec![],
            ..CampaignConfig::scaleout()
        };
        assert!(run_latency(&bad).is_err());
    }

    #[test]
    fn scaleout_smoke_native_rill_two_parallelisms() {
        // A tiny two-point search: floor 500, ceiling 2 000. The
        // in-process engine sustains both comfortably, so the cell
        // should finish after the two bracket probes.
        let config = CampaignConfig {
            records: 240,
            warmup_records: 40,
            parallelisms: vec![1, 2],
            cells: vec![(System::Rill, Api::Native)],
            trials: Trials::Search {
                min_rate: 500.0,
                max_rate: 2_000.0,
                iters: 1,
            },
            ..CampaignConfig::scaleout()
        };
        let report = run_latency(&config).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(
                cell.highest_sustainable().is_some(),
                "{} found no sustainable rate: {:?}",
                cell.setup,
                cell.trials
            );
            assert!(!cell.trials.is_empty());
            for probe in &cell.trials {
                assert!(probe.output_ok, "{} lost records", cell.setup);
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"parallelism\":1"));
        assert!(json.contains("\"parallelism\":2"));
    }
}
