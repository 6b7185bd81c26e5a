//! Turns a run's checked executions into named metrics.

use crate::cells::{label, CELLS};
use crate::floors::Floors;
use crate::stats::{
    bootstrap_ratio_interval, exact_median, exact_quantile, median, trimmed_mean, SplitMix64,
};
use crate::workload::{CellRuns, Kind, Prepared, RepOutcome};
use std::fmt::Write as _;
use streambench_core::{Api, Setup, System};

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; non-finite values
    /// are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                obs::json::string(name),
                number(*value),
                obs::json::string(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps, or `null`.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn index(system: System, api: Api) -> usize {
    CELLS
        .iter()
        .position(|c| c.system == system && c.api == api)
        .expect("every engine × SDK pair is a cell")
}

const ENGINES: [System; 3] = [System::Rill, System::DStream, System::Apx];

/// A cell's end-to-end figures over a set of executions.
#[derive(Debug, Clone, Copy)]
pub struct CellFigures {
    /// Trimmed mean (fastest three quarters) of the executions' output
    /// `LogAppendTime` spans.
    pub exec_s: f64,
    /// Median latency: per execution, then averaged as the spans are
    /// (batch); over the pooled samples (open loop).
    pub p50_ms: f64,
    /// 99th-percentile latency, likewise (reported, not gated).
    pub p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

fn headline_values(kind: Kind, reps: &[RepOutcome]) -> Vec<f64> {
    reps.iter().map(|r| kind.headline(r)).collect()
}

/// Batch: trimmed means of the executions' spans and exact percentiles
/// (`samples` counts executions). Open loop: the trimmed mean of the
/// spans, and exact percentiles over the pooled samples of all trials.
pub fn figures(kind: Kind, reps: &[RepOutcome]) -> CellFigures {
    let exec_s = trimmed_of(reps, |r| r.exec_s);
    match kind {
        Kind::Batch => CellFigures {
            exec_s,
            p50_ms: trimmed_of(reps, |r| r.p50_ms),
            p99_ms: trimmed_of(reps, |r| r.p99_ms),
            samples: reps.len() as u64,
        },
        Kind::OpenLoop { .. } => {
            let mut pooled: Vec<u64> = reps
                .iter()
                .flat_map(|r| r.latencies_us.iter().copied())
                .collect();
            CellFigures {
                exec_s,
                p50_ms: exact_median(&mut pooled).map_or(f64::NAN, |us| us / 1e3),
                p99_ms: exact_quantile(&mut pooled, 0.99).map_or(f64::NAN, |us| us as f64 / 1e3),
                samples: pooled.len() as u64,
            }
        }
    }
}

/// The headline figure `sf` compares: span on batch, p50 in the open loop.
fn headline(kind: Kind, f: &CellFigures) -> f64 {
    match kind {
        Kind::Batch => f.exec_s,
        Kind::OpenLoop { .. } => f.p50_ms,
    }
}

pub fn end_to_end(prepared: &Prepared, figures: &[CellFigures]) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", prepared.setup_s, "s");
    for (cell, f) in CELLS.iter().zip(figures) {
        m.put(format!("exec_s.{}", label(*cell)), f.exec_s, "s");
    }
    for (cell, f) in CELLS.iter().zip(figures) {
        m.put(format!("p50_ms.{}", label(*cell)), f.p50_ms, "ms");
    }
    m
}

/// `beamline.sf.<engine>` with a 95 % bootstrap interval over the run's
/// untraced executions. An engine is *noise-limited* when the interval
/// reaches 1.0, i.e. it cannot tell whether the abstraction layer is
/// slower than native as the paper finds.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub engine: System,
    pub sf: f64,
    pub lo: f64,
    pub hi: f64,
    pub noise_limited: bool,
}

pub fn slowdowns(
    kind: Kind,
    runs: &[CellRuns],
    figures: &[CellFigures],
    seed: u64,
) -> Vec<Slowdown> {
    let mut rng = SplitMix64::new(seed ^ 0x5f5f_5f5f);
    ENGINES
        .iter()
        .map(|&engine| {
            let native = index(engine, Api::Native);
            let beam = index(engine, Api::Beam);
            let sf = headline(kind, &figures[beam]) / headline(kind, &figures[native]);
            let (lo, hi) = bootstrap_ratio_interval(
                &headline_values(kind, &runs[beam].untraced),
                &headline_values(kind, &runs[native].untraced),
                2_000,
                &mut rng,
            )
            .unwrap_or((f64::NAN, f64::NAN));
            Slowdown {
                engine,
                sf,
                lo,
                hi,
                noise_limited: lo.is_nan() || lo <= 1.0,
            }
        })
        .collect()
}

fn trimmed_of(reps: &[RepOutcome], f: impl Fn(&RepOutcome) -> f64) -> f64 {
    trimmed_mean(&reps.iter().map(f).collect::<Vec<_>>())
}

fn median_of(reps: &[RepOutcome], f: impl Fn(&RepOutcome) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn counter_median(reps: &[RepOutcome], f: impl Fn(&crate::cells::LayerCounters) -> u64) -> f64 {
    median_of(reps, |r| r.counters.map_or(f64::NAN, |c| f(&c) as f64))
}

/// Every per-layer metric, from the traced executions and the floors.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    kind: Kind,
    prepared: &Prepared,
    runs: &[CellRuns],
    untraced: &[CellFigures],
    traced: &[CellFigures],
    floors: &Floors,
    slowdowns: &[Slowdown],
    rtt_us: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let all_traced: Vec<RepOutcome> = runs.iter().flat_map(|r| r.traced.clone()).collect();

    m.put("sender.generate_s", prepared.generate_s, "s");
    m.put("sender.preload_s", prepared.preload_s, "s");
    m.put("sender.lag_ms", floors.lag_ms, "ms");
    m.put(
        "calculator.drain_s",
        median_of(&all_traced, |r| r.measure_s),
        "s",
    );

    m.put("logbus.fetch_floor_s", floors.fetch_floor_s, "s");
    m.put("logbus.append_floor_s", floors.append_floor_s, "s");
    m.put("logbus.request_us", floors.request_us, "us");
    let per_cell = |m: &mut Metrics, prefix: &str, unit: &'static str, f: &dyn Fn(usize) -> f64| {
        for (i, cell) in CELLS.iter().enumerate() {
            m.put(format!("{prefix}.{}", label(*cell)), f(i), unit);
        }
    };
    per_cell(&mut m, "logbus.produce_requests", "count", &|i| {
        counter_median(&runs[i].traced, |c| c.produce_requests)
    });
    per_cell(&mut m, "logbus.fetch_requests", "count", &|i| {
        counter_median(&runs[i].traced, |c| c.fetch_requests)
    });
    per_cell(&mut m, "logbus.rtt_share", "ratio", &|i| {
        median_of(&runs[i].traced, |r| {
            r.counters.map_or(f64::NAN, |c| {
                (c.produce_requests + c.fetch_requests) as f64 * rtt_us / (r.exec_s * 1e6)
            })
        })
    });
    per_cell(&mut m, "logbus.append_contended", "count", &|i| {
        counter_median(&runs[i].traced, |c| c.append_contended)
    });

    per_cell(&mut m, "engine.run_s", "s", &|i| {
        median_of(&runs[i].traced, |r| r.engine.run.as_secs_f64())
    });
    per_cell(&mut m, "engine.op_busy_s", "s", &|i| {
        counter_median(&runs[i].traced, |c| c.op_busy_micros) / 1e6
    });
    for api in [Api::Native, Api::Beam] {
        let reps = &runs[index(System::DStream, api)].traced;
        m.put(
            format!("dstream.batches.{api}"),
            median_of(reps, |r| r.engine.batches.map_or(f64::NAN, |b| b as f64)),
            "count",
        );
    }
    for api in [Api::Native, Api::Beam] {
        let reps = &runs[index(System::Apx, api)].traced;
        m.put(
            format!("apx.containers.{api}"),
            median_of(reps, |r| r.engine.containers.map_or(f64::NAN, |c| c as f64)),
            "count",
        );
    }
    m.put("yarnsim.cluster_s", floors.yarn_cluster_s, "s");

    let run_s = |i: usize| median_of(&runs[i].traced, |r| r.engine.run.as_secs_f64());
    for engine in ENGINES {
        m.put(
            format!("beamline.overhead_s.{engine}"),
            run_s(index(engine, Api::Beam)) - run_s(index(engine, Api::Native)),
            "s",
        );
    }
    for engine in ENGINES {
        let reps = &runs[index(engine, Api::Beam)].traced;
        m.put(
            format!("beamline.crossings.{engine}"),
            counter_median(reps, |c| c.crossings),
            "count",
        );
    }
    for engine in ENGINES {
        let reps = &runs[index(engine, Api::Beam)].traced;
        m.put(
            format!("beamline.pardo_busy_s.{engine}"),
            counter_median(reps, |c| c.pardo_busy_micros) / 1e6,
            "s",
        );
    }
    m.put("beamline.coder_ns", floors.coder_ns, "ns");
    m.put("beamline.build_s", floors.build_s, "s");
    for s in slowdowns {
        m.put(format!("beamline.sf.{}", s.engine), s.sf, "ratio");
    }
    for s in slowdowns {
        m.put(format!("beamline.sf_lo.{}", s.engine), s.lo, "ratio");
    }
    for s in slowdowns {
        m.put(format!("beamline.sf_hi.{}", s.engine), s.hi, "ratio");
    }
    for s in slowdowns {
        m.put(
            format!("beamline.noise_limited.{}", s.engine),
            f64::from(u8::from(s.noise_limited)),
            "flag",
        );
    }

    let total =
        |figures: &[CellFigures]| -> f64 { figures.iter().map(|f| headline(kind, f)).sum() };
    m.put("obs.overhead", total(traced) / total(untraced), "ratio");

    per_cell(&mut m, "unexplained_s", "s", &|i| {
        let busy =
            counter_median(&runs[i].traced, |c| c.op_busy_micros + c.pardo_busy_micros) / 1e6;
        traced[i].exec_s - floors.fetch_floor_s - floors.append_floor_s - busy
    });
    m
}

/// One cell's untraced figures, for the run's written report.
pub fn cell_details(cell: Setup, runs: &CellRuns, f: &CellFigures) -> String {
    let list = |f: fn(&RepOutcome) -> f64| -> String {
        let values: Vec<String> = runs.untraced.iter().map(|r| number(f(r))).collect();
        values.join(", ")
    };
    format!(
        "{{\"cell\": {}, \"executions\": {}, \"traced_executions\": {}, \"exec_s\": [{}], \"execution_p50_ms\": [{}], \"p50_ms\": {}, \"p99_ms\": {}, \"latency_samples\": {}}}",
        obs::json::string(&label(cell)),
        runs.untraced.len(),
        runs.traced.len(),
        list(|r| r.exec_s),
        list(|r| r.p50_ms),
        number(f.p50_ms),
        number(f.p99_ms),
        f.samples
    )
}
