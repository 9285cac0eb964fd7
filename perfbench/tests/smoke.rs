//! Short runs of every workload: every metric is reported and no unit
//! fails.

use std::time::Instant;

use perfbench::workloads::Workload;
use perfbench::{Options, DEFAULT_SEED, END_TO_END};

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.5,
        trace,
        untraced_throughput: trace.then_some(1.0),
        spans_out: None,
        commit: "test".into(),
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_failures() {
    for workload in Workload::ALL {
        let out = perfbench::run(&options(workload, false), Instant::now(), &[]);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", workload.name());
        assert!(out.correct, "{}: {out:?}", workload.name());
        assert_eq!(out.failed, 0, "{}", workload.name());
        assert_eq!(
            out.metric("success_ratio"),
            Some(1.0),
            "{}",
            workload.name()
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                workload.name()
            );
        }
        let line = out.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(out.record.contains("\"failed_ratio\": 0"), "{}", out.record);
    }
}

#[cfg(feature = "telemetry")]
#[test]
fn every_workload_reports_every_per_layer_metric_without_failures() {
    use perfbench::layers::PER_LAYER;
    for workload in Workload::ALL {
        let out = perfbench::run(&options(workload, true), Instant::now(), &[]);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER, "{}", workload.name());
        assert!(out.correct, "{}: {out:?}", workload.name());
        assert_eq!(out.failed, 0, "{}", workload.name());
        assert!(out.metric("ntt.forward_per_unit").unwrap() > 0.0);
        assert!(out.metric("attribution_coverage").unwrap() > 0.0);
        if workload == Workload::OpBurst {
            assert!(out.metric("par.dispatches_per_unit").unwrap() > 0.0);
            assert!(out.metric("integrity.checked_per_unit").unwrap() > 0.0);
        }
    }
}

#[test]
fn pinned_seeds_have_pinned_digests() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, perfbench::HELD_OUT_SEED] {
            assert!(
                perfbench::expected_digest(workload, seed).is_some(),
                "{} seed {seed} has no pinned digest",
                workload.name()
            );
        }
    }
}
