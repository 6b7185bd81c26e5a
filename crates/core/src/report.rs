//! Aggregation and rendering of the paper's figures and tables.
//!
//! Every experiment artifact of §III has a renderer here: Figs. 6–9
//! (average execution times), Fig. 10 (relative standard deviation),
//! Fig. 11 (slowdown factors), Table I (system comparison), Table II
//! (query overview), and Table III (per-run times). The campaign modes
//! render their tables here too, and write their JSON reports through
//! the one [`JsonObject`] writer.

use crate::config::{Trials, CATCHUP_RATIO, P99_BOUND_MICROS};
use crate::latency::LatencyReport;
use crate::queries::Query;
use crate::runner::{Measurement, RunIncident};
use crate::setup::{Api, Setup, System};
use crate::stats;
use std::collections::BTreeMap;

/// One JSON object under construction: the single writer behind every
/// campaign report, built on [`obs::json`]. Keys keep insertion order.
#[derive(Debug, Default)]
#[must_use = "finish the object to get its JSON text"]
pub struct JsonObject(String);

impl JsonObject {
    /// Adds `key` with an already-encoded JSON value (object or array).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        obs::json::write_string(&mut self.0, key);
        self.0.push(':');
        self.0.push_str(value);
        self
    }

    /// Adds `key` with a string value.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, &obs::json::string(value))
    }

    /// Adds `key` with an integer or boolean value.
    pub fn num(self, key: &str, value: impl std::fmt::Display) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Adds `key` with a float value: `None` writes `null`, and a value
    /// that is not finite degrades to `0`.
    pub fn float(self, key: &str, value: impl Into<Option<f64>>) -> Self {
        let text = match value.into() {
            Some(v) if v.is_finite() => v.to_string(),
            Some(_) => "0".to_string(),
            None => "null".to_string(),
        };
        self.raw(key, &text)
    }

    /// The finished object's JSON text.
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// Encodes `items` as a JSON array of `encode`d values.
pub fn json_array<T>(items: &[T], encode: impl Fn(&T) -> String) -> String {
    let values: Vec<String> = items.iter().map(encode).collect();
    format!("[{}]", values.join(","))
}

/// One labelled value of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Y-axis label, e.g. `Apex Beam P1`.
    pub label: String,
    /// The value (seconds, coefficient, or factor).
    pub value: f64,
}

/// Average execution time per setup for one query — the data of
/// Figs. 6–9, in the figures' label order.
pub fn average_times(measurements: &[Measurement], query: Query) -> Vec<FigureRow> {
    let mut grouped: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for m in measurements.iter().filter(|m| m.query == query) {
        grouped
            .entry(m.setup.label())
            .or_default()
            .push(m.execution_seconds);
    }
    grouped
        .into_iter()
        .map(|(label, times)| FigureRow {
            label,
            value: stats::average_execution_time(&times),
        })
        .collect()
}

/// Relative standard deviation per system–query–SDK combination, with
/// the two parallelism factors' deviations averaged — the data of
/// Fig. 10.
pub fn relative_std_devs(measurements: &[Measurement]) -> Vec<FigureRow> {
    // (system label, api, query) -> parallelism -> times
    let mut grouped: BTreeMap<(String, Query), BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for m in measurements {
        let sdk = match m.setup.api {
            Api::Beam => format!("{} Beam", m.setup.system.label()),
            Api::Native => m.setup.system.label().to_string(),
        };
        grouped
            .entry((sdk, m.query))
            .or_default()
            .entry(m.setup.parallelism)
            .or_default()
            .push(m.execution_seconds);
    }
    grouped
        .into_iter()
        .map(|((sdk, query), by_parallelism)| {
            let deviations: Vec<f64> = by_parallelism
                .values()
                .map(|times| stats::relative_std_dev(times))
                .collect();
            FigureRow {
                label: format!("{sdk} {}", capitalize(&query.to_string())),
                value: stats::mean(&deviations),
            }
        })
        .collect()
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Slowdown factor per system for one query — the data of Fig. 11,
/// computed with the paper's formula (§III-C3).
pub fn slowdown_factors(measurements: &[Measurement], query: Query) -> Vec<FigureRow> {
    let mut rows = Vec::new();
    for system in System::ALL {
        let mut parallelisms: Vec<usize> = measurements
            .iter()
            .filter(|m| m.query == query && m.setup.system == system)
            .map(|m| m.setup.parallelism)
            .collect();
        parallelisms.sort_unstable();
        parallelisms.dedup();
        let mut pairs = Vec::new();
        for p in parallelisms {
            let avg = |api: Api| {
                let times: Vec<f64> = measurements
                    .iter()
                    .filter(|m| {
                        m.query == query
                            && m.setup
                                == Setup {
                                    system,
                                    api,
                                    parallelism: p,
                                }
                    })
                    .map(|m| m.execution_seconds)
                    .collect();
                stats::average_execution_time(&times)
            };
            let beam = avg(Api::Beam);
            let native = avg(Api::Native);
            if native > 0.0 && beam > 0.0 {
                pairs.push((beam, native));
            }
        }
        if !pairs.is_empty() {
            rows.push(FigureRow {
                label: format!("{} {}", system.label(), capitalize(&query.to_string())),
                value: stats::slowdown_factor(&pairs),
            });
        }
    }
    rows
}

/// Per-run execution times of one (system, api, query) cell, by
/// parallelism — the data of Table III.
pub fn per_run_times(
    measurements: &[Measurement],
    system: System,
    api: Api,
    query: Query,
) -> BTreeMap<usize, Vec<f64>> {
    let mut table: BTreeMap<usize, Vec<(u32, f64)>> = BTreeMap::new();
    for m in measurements
        .iter()
        .filter(|m| m.query == query && m.setup.system == system && m.setup.api == api)
    {
        table
            .entry(m.setup.parallelism)
            .or_default()
            .push((m.run, m.execution_seconds));
    }
    table
        .into_iter()
        .map(|(p, mut runs)| {
            runs.sort_by_key(|(run, _)| *run);
            (p, runs.into_iter().map(|(_, t)| t).collect())
        })
        .collect()
}

/// Renders a horizontal ASCII bar chart in the style of the paper's
/// figures.
pub fn render_bars(title: &str, rows: &[FigureRow], unit: &str) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = rows
        .iter()
        .map(|r| r.value)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let label_width = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    for row in rows {
        let bar_len = ((row.value / max) * 40.0).round() as usize;
        out.push_str(&format!(
            "  {:<width$}  {:>10.4} {:<4} |{}\n",
            row.label,
            row.value,
            unit,
            "#".repeat(bar_len.max(usize::from(row.value > 0.0))),
            width = label_width
        ));
    }
    out
}

/// Renders a markdown table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Renders the campaign's incident log: every run that needed retries
/// or was abandoned, with its cause. Figures exclude abandoned runs;
/// this table is the report's explanation of the gaps.
pub fn render_incidents(incidents: &[RunIncident]) -> String {
    let mut out = String::from("Run incidents (retried or abandoned runs)\n");
    if incidents.is_empty() {
        out.push_str("  none: every run succeeded on its first attempt\n");
        return out;
    }
    let rows: Vec<Vec<String>> = incidents
        .iter()
        .map(|i| {
            vec![
                i.setup.label(),
                capitalize(&i.query.to_string()),
                format!("{}", i.run + 1),
                i.attempts.to_string(),
                if i.recovered {
                    "recovered (retried)".to_string()
                } else {
                    "abandoned (outlier, excluded)".to_string()
                },
                i.error.clone(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["Setup", "Query", "Run", "Attempts", "Outcome", "Last error"],
        &rows,
    ));
    out
}

/// Renders the Table I analog: the system comparison.
pub fn table_one() -> String {
    let profiles = crate::systems::system_profiles();
    let rows: Vec<Vec<String>> = profiles
        .iter()
        .map(|p| {
            vec![
                p.system.label().to_string(),
                format!("{} ({})", p.crate_name, p.models),
                p.data_processing.to_string(),
                p.parallelism_knob.to_string(),
                p.guarantees.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "System",
            "Implementation (models)",
            "Data processing",
            "Parallelism knob",
            "Guarantees",
        ],
        &rows,
    )
}

/// Renders the Table II analog: the query overview.
pub fn table_two() -> String {
    let rows: Vec<Vec<String>> = Query::ALL
        .iter()
        .map(|q| vec![capitalize(&q.to_string()), q.description().to_string()])
        .collect();
    render_table(&["Query", "Description"], &rows)
}

/// Renders the Table III analog for a per-run table.
pub fn table_three(per_run: &BTreeMap<usize, Vec<f64>>) -> String {
    let parallelisms: Vec<usize> = per_run.keys().copied().collect();
    let runs = per_run.values().map(Vec::len).max().unwrap_or(0);
    let headers: Vec<String> = std::iter::once("Number of Run".to_string())
        .chain(parallelisms.iter().map(|p| format!("Parallelism = {p}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for run in 0..runs {
        let mut row = vec![format!("{}", run + 1)];
        for p in &parallelisms {
            let cell = per_run[p]
                .get(run)
                .map(|t| format!("{t:.4}s"))
                .unwrap_or_default();
            row.push(cell);
        }
        rows.push(row);
    }
    render_table(&header_refs, &rows)
}

/// Renders the latency sweep: one row per (cell, offered rate) with the
/// CO-safe percentiles and the sustainability verdict, followed by a
/// per-cell summary of the highest sustainable rate — the latency
/// dimension added to the paper's slowdown matrix.
pub fn latency_table(report: &LatencyReport) -> String {
    let mut out = format!(
        "Latency sweep — {} query, {} records/trial (warmup {}), sustainable ⇔ \
         p99 ≤ {} ms and drain ratio ≤ {}\n",
        report.config.query,
        report.config.records,
        report.config.warmup_records,
        P99_BOUND_MICROS as f64 / 1_000.0,
        CATCHUP_RATIO,
    );
    let ms = |micros: u64| format!("{:.3}", micros as f64 / 1_000.0);
    let mut rows = Vec::new();
    for cell in &report.cells {
        for trial in &cell.trials {
            rows.push(vec![
                cell.setup.label(),
                format!("{:.0}", trial.offered_rate),
                if trial.sustainable {
                    "sustainable".to_string()
                } else {
                    "overloaded".to_string()
                },
                ms(trial.p50_micros),
                ms(trial.p95_micros),
                ms(trial.p99_micros),
                ms(trial.p999_micros),
                format!("{:.2}", trial.drain_ratio),
            ]);
        }
    }
    out.push_str(&render_table(
        &[
            "Setup",
            "Rate (rec/s)",
            "Verdict",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "Drain",
        ],
        &rows,
    ));
    out.push_str("\nHighest sustainable rate per cell\n");
    let summary: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| match cell.highest_sustainable() {
            Some(t) => vec![
                cell.setup.label(),
                format!("{:.0}", t.offered_rate),
                ms(t.p50_micros),
                ms(t.p99_micros),
                ms(t.p999_micros),
            ],
            None => vec![
                cell.setup.label(),
                "none (overloaded at every rate)".to_string(),
                String::new(),
                String::new(),
                String::new(),
            ],
        })
        .collect();
    out.push_str(&render_table(
        &["Setup", "Rate (rec/s)", "p50 (ms)", "p99 (ms)", "p999 (ms)"],
        &summary,
    ));
    out
}

/// Renders the scale-out sweep: one row per (cell, parallelism) with
/// the binary-searched max sustainable rate, its probe count, and the
/// speedup over the same cell at parallelism 1.
pub fn scaleout_table(report: &LatencyReport) -> String {
    let (min_rate, max_rate) = match report.config.trials {
        Trials::Search {
            min_rate, max_rate, ..
        } => (min_rate, max_rate),
        _ => (0.0, 0.0),
    };
    let mut out = format!(
        "Scale-out sweep — {} query, {} records/probe (warmup {}), bracket \
         [{:.0}, {:.0}] rec/s, sustainable ⇔ p99 ≤ {} ms and drain ratio ≤ {}\n",
        report.config.query,
        report.config.records,
        report.config.warmup_records,
        min_rate,
        max_rate,
        P99_BOUND_MICROS as f64 / 1_000.0,
        CATCHUP_RATIO,
    );
    // Baseline (parallelism 1) max rate per (system, sdk) for speedups.
    let baseline = |cell: &crate::latency::LatencyCell| -> Option<f64> {
        report
            .cells
            .iter()
            .find(|c| {
                c.setup.system == cell.setup.system
                    && c.setup.api == cell.setup.api
                    && c.setup.parallelism == 1
            })
            .and_then(|c| c.highest_sustainable())
            .map(|t| t.offered_rate)
    };
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| {
            let rate = cell.highest_sustainable().map(|t| t.offered_rate);
            let max = match rate {
                Some(rate) => format!("{rate:.0}"),
                None => "none (overloaded at floor)".to_string(),
            };
            let speedup = match (rate, baseline(cell)) {
                (Some(rate), Some(base)) if base > 0.0 => format!("{:.2}x", rate / base),
                _ => String::new(),
            };
            vec![
                cell.setup.label(),
                format!("{}", cell.setup.parallelism),
                max,
                speedup,
                format!("{}", cell.trials.len()),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "Setup",
            "Parallelism",
            "Max rate (rec/s)",
            "vs P1",
            "Probes",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(
        system: System,
        api: Api,
        parallelism: usize,
        query: Query,
        run: u32,
        seconds: f64,
    ) -> Measurement {
        Measurement {
            setup: Setup {
                system,
                api,
                parallelism,
            },
            query,
            run,
            execution_seconds: seconds,
            output_records: 1,
            attempts: 1,
        }
    }

    fn sample_measurements() -> Vec<Measurement> {
        let mut ms = Vec::new();
        for (i, &t) in [10.0, 12.0].iter().enumerate() {
            ms.push(measurement(
                System::Rill,
                Api::Beam,
                1,
                Query::Grep,
                i as u32,
                t,
            ));
        }
        for (i, &t) in [14.0, 14.0].iter().enumerate() {
            ms.push(measurement(
                System::Rill,
                Api::Beam,
                2,
                Query::Grep,
                i as u32,
                t,
            ));
        }
        for (i, &t) in [2.0, 2.0].iter().enumerate() {
            ms.push(measurement(
                System::Rill,
                Api::Native,
                1,
                Query::Grep,
                i as u32,
                t,
            ));
        }
        for (i, &t) in [2.0, 2.0].iter().enumerate() {
            ms.push(measurement(
                System::Rill,
                Api::Native,
                2,
                Query::Grep,
                i as u32,
                t,
            ));
        }
        ms
    }

    #[test]
    fn average_times_per_setup() {
        let rows = average_times(&sample_measurements(), Query::Grep);
        assert_eq!(rows.len(), 4);
        let beam_p1 = rows.iter().find(|r| r.label == "Flink Beam P1").unwrap();
        assert!((beam_p1.value - 11.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_uses_paper_formula() {
        let rows = slowdown_factors(&sample_measurements(), Query::Grep);
        assert_eq!(rows.len(), 1);
        // (11/2 + 14/2) / 2 = 6.25
        assert!((rows[0].value - 6.25).abs() < 1e-12);
        assert_eq!(rows[0].label, "Flink Grep");
    }

    #[test]
    fn rsd_averages_parallelisms() {
        let rows = relative_std_devs(&sample_measurements());
        let beam = rows.iter().find(|r| r.label == "Flink Beam Grep").unwrap();
        // P1 rsd = 1/11, P2 rsd = 0 -> average.
        assert!((beam.value - (1.0 / 11.0) / 2.0).abs() < 1e-12);
        let native = rows.iter().find(|r| r.label == "Flink Grep").unwrap();
        assert_eq!(native.value, 0.0);
    }

    #[test]
    fn per_run_table_orders_runs() {
        let ms = sample_measurements();
        let table = per_run_times(&ms, System::Rill, Api::Beam, Query::Grep);
        assert_eq!(table[&1], vec![10.0, 12.0]);
        assert_eq!(table[&2], vec![14.0, 14.0]);
        let rendered = table_three(&table);
        assert!(rendered.contains("Parallelism = 1"));
        assert!(rendered.contains("10.0000s"));
    }

    #[test]
    fn incident_log_marks_retried_and_abandoned_runs() {
        assert!(render_incidents(&[]).contains("none: every run succeeded"));
        let incidents = vec![
            RunIncident {
                setup: Setup {
                    system: System::Rill,
                    api: Api::Beam,
                    parallelism: 1,
                },
                query: Query::Grep,
                run: 0,
                attempts: 2,
                error: "execution of flink-beam-p1 failed: boom".into(),
                recovered: true,
            },
            RunIncident {
                setup: Setup {
                    system: System::Apx,
                    api: Api::Native,
                    parallelism: 2,
                },
                query: Query::Sample,
                run: 3,
                attempts: 3,
                error: "broker failure: broker unavailable".into(),
                recovered: false,
            },
        ];
        let rendered = render_incidents(&incidents);
        assert!(rendered.contains("Run incidents"));
        assert!(rendered.contains("recovered (retried)"));
        assert!(rendered.contains("abandoned (outlier, excluded)"));
        assert!(rendered.contains("boom"));
    }

    #[test]
    fn latency_table_lists_trials_and_summary() {
        use crate::latency::{LatencyCell, LatencyTrial};
        let trial = |rate: f64, sustainable: bool| LatencyTrial {
            offered_rate: rate,
            output_records: 100,
            measured: 90,
            p50_micros: 1_500,
            p95_micros: 3_000,
            p99_micros: 5_000,
            p999_micros: 9_000,
            max_micros: 12_000,
            mean_micros: 2_000.0,
            drain_ratio: 1.02,
            max_send_lag_micros: 10,
            output_ok: true,
            sustainable,
        };
        let report = LatencyReport {
            config: crate::config::CampaignConfig {
                records: 100,
                warmup_records: 10,
                ..crate::config::CampaignConfig::latency()
            },
            cells: vec![
                LatencyCell {
                    setup: Setup {
                        system: System::Rill,
                        api: Api::Beam,
                        parallelism: 1,
                    },
                    trials: vec![trial(500.0, true), trial(4_000.0, false)],
                },
                LatencyCell {
                    setup: Setup {
                        system: System::Apx,
                        api: Api::Native,
                        parallelism: 1,
                    },
                    trials: vec![trial(500.0, false)],
                },
            ],
        };
        let rendered = latency_table(&report);
        assert!(rendered.contains("Flink Beam P1"));
        assert!(rendered.contains("sustainable"));
        assert!(rendered.contains("overloaded"));
        assert!(rendered.contains("1.500"), "{rendered}");
        assert!(rendered.contains("Highest sustainable rate per cell"));
        assert!(rendered.contains("none (overloaded at every rate)"));
    }

    #[test]
    fn renderers_produce_text() {
        let rows = vec![
            FigureRow {
                label: "A".into(),
                value: 2.0,
            },
            FigureRow {
                label: "BB".into(),
                value: 1.0,
            },
        ];
        let chart = render_bars("Fig X", &rows, "s");
        assert!(chart.contains("Fig X"));
        assert!(chart.contains("####"));
        assert!(table_one().contains("Flink"));
        assert!(table_two().contains("Grep"));
    }
}
