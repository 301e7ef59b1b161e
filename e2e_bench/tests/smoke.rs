//! Tiny-geometry runs of every workload shape, untraced and traced:
//! each must produce a well-formed result whose determinism checks pass.

use byz_e2e_bench::bench::{self, Plan};
use byz_e2e_bench::report::{END_TO_END, PER_LAYER};
use byz_e2e_bench::workload::{Geometry, Workload};

fn tiny(workload: Workload, traced: bool) -> Plan {
    Plan {
        geometry: Geometry::tiny(),
        rounds: 100,
        digest_rounds: 3,
        ..Plan::new(workload, 7, 1.0, traced)
    }
}

fn check_passed(report: &byz_e2e_bench::report::Report, name: &str) -> bool {
    report.checks.iter().any(|c| c.name == name && c.passed)
}

#[test]
fn every_workload_shape_is_deterministic_and_well_formed() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let label = format!("{} traced={traced}", workload.name());
            let (report, spans) = bench::run(&tiny(workload, traced));
            // The tiny model is not trained to the full workload's
            // accuracy floor; every other check must hold.
            for c in report.checks.iter().filter(|c| c.name != "accuracy_floor") {
                assert!(c.passed, "{label}: {} failed: {}", c.name, c.detail);
            }
            assert!(check_passed(&report, "determinism"), "{label}");
            let table = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let line = report
                .result_json(table)
                .unwrap_or_else(|p| panic!("{label}: {p:?}"));
            assert!(line.starts_with("{\"correct\":"), "{label}");
            if traced {
                assert!(!spans.is_empty(), "{label}: no spans");
                if workload != Workload::SimAlie {
                    assert!(check_passed(&report, "replay_matches_engine"), "{label}");
                }
            } else {
                assert!(check_passed(&report, "measured_prefix_matches"), "{label}");
            }
        }
    }
}

#[test]
fn same_seed_same_digest_across_runs() {
    let (a, _) = bench::run(&tiny(Workload::ChanWide, false));
    let (b, _) = bench::run(&tiny(Workload::ChanWide, false));
    for name in [
        "test_accuracy",
        "clean_file_fraction",
        "ingress_bytes_per_round",
    ] {
        assert_eq!(a.value(name), b.value(name), "{name}");
    }
}
