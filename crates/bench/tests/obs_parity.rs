//! Disabled-path parity: the latency benchmark's hot-path telemetry is
//! behind the `obs::enabled()` runtime gate, so with instrumentation off
//! a full latency trial must leave the global registry exactly as dark
//! as the PR 6 tree did — no histograms resolved, no spans recorded.
//! The timing counterpart (cycle-level cost of the disabled guard) is
//! the `obs_overhead` Criterion bench; this test is the deterministic
//! structural assertion CI runs on every push.
//!
//! Everything lives in one `#[test]` because the obs switch is
//! process-global and test threads share it.

use streambench_core::{run_latency, CampaignConfig, Trials};

#[test]
fn disabled_path_is_dark_and_gate_activates_latency_telemetry() {
    // The switch defaults to off; nothing in crate initialization may
    // have flipped it.
    assert!(!obs::enabled(), "obs must default to disabled");

    let config = CampaignConfig {
        records: 120,
        warmup_records: 0,
        trials: Trials::Rates(vec![6_000.0]),
        parallelisms: vec![1],
        ..CampaignConfig::latency()
    };
    let report = run_latency(&config).expect("latency sweep");
    assert_eq!(report.cells.len(), 6);

    // Parity: the disabled run resolved no histograms and recorded no
    // spans — the gated sites never touched the registry. (Component
    // counters that are part of component semantics are exempt from the
    // gate by design, but none of them live under the latency prefix.)
    let snapshot = obs::global().registry().snapshot();
    assert!(
        snapshot.histograms.is_empty(),
        "disabled run resolved histograms: {:?}",
        snapshot.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        !snapshot.counters.keys().any(|k| k.starts_with("latency.")),
        "disabled run resolved latency counters"
    );
    let spans = obs::global().tracer().snapshot_spans();
    assert!(
        spans.is_empty(),
        "disabled run recorded {} spans",
        spans.len()
    );

    // Flipping the gate is the only difference: the same sweep now
    // fills the end-to-end latency histogram and the trial spans.
    // (Under the obs `noop` feature the switch is compile-time false
    // and this half is vacuously skipped.)
    obs::set_enabled(true);
    if obs::enabled() {
        obs::global().reset();
        let config = CampaignConfig {
            records: 60,
            trials: Trials::Rates(vec![6_000.0]),
            ..config
        };
        run_latency(&config).expect("instrumented latency sweep");
        let snapshot = obs::global().registry().snapshot();
        let e2e = snapshot
            .histograms
            .get("latency.e2e_micros")
            .expect("enabled run records latency.e2e_micros");
        assert!(e2e.count > 0);
        let spans = obs::global().tracer().snapshot_spans();
        assert!(
            spans.iter().any(|s| s.name == "latency.trial"),
            "enabled run records latency.trial spans"
        );
        obs::set_enabled(false);
        obs::global().reset();
    }
}
