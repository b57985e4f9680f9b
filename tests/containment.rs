//! Acceptance tests for crash-isolated, resumable evaluation (the PR 3
//! containment subsystem):
//!
//! * a run with one panicking and one deadline-tripping cell completes
//!   all the others, reports the incidents as [`ContainmentEvent`]s, and
//!   quarantines the poison inputs;
//! * resuming that run (faults removed) re-runs *only* the two failed
//!   cells and merges into a report byte-identical to a clean serial run;
//! * region-level panics injected under the robust chain (`Pipeline::run_set`) are
//!   contained and recovered by the fallback chain.

use std::path::PathBuf;
use treegion_suite::eval::{
    run_harness, CellFault, CellFaultKind, CellStatus, HarnessOptions, RunManifest,
};
use treegion_suite::treegion::{ContainmentAction, RetryPolicy};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tgc-containment-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Four fast cells over a one-benchmark suite; no retry backoff so the
/// test does not sleep.
fn base_opts() -> HarnessOptions {
    HarnessOptions {
        small: Some(1),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 0,
        },
        only: vec![
            "table1".into(),
            "table2".into(),
            "table3".into(),
            "table4".into(),
        ],
        ..HarnessOptions::default()
    }
}

#[test]
fn poisoned_run_completes_quarantines_and_resumes_only_failed_cells() {
    let ckpt = tmpdir("ckpt");
    let quar = tmpdir("quar");

    // One cell panics on every attempt, one hangs past its deadline.
    let poisoned = HarnessOptions {
        fault_cells: vec![
            (
                "table2".into(),
                CellFault {
                    kind: CellFaultKind::Panic,
                    trips: u32::MAX,
                },
            ),
            (
                "table3".into(),
                CellFault {
                    kind: CellFaultKind::Hang { sleep_ms: 10_000 },
                    trips: u32::MAX,
                },
            ),
        ],
        cell_deadline_ms: Some(200),
        checkpoint_dir: Some(ckpt.clone()),
        quarantine_dir: Some(quar.clone()),
        ..base_opts()
    };
    let report = run_harness(&poisoned).expect("contained run is not a hard error");

    // Every *other* cell completed despite the two poison cells.
    for name in ["table1", "table4"] {
        let c = report.cells.iter().find(|c| c.name == name).unwrap();
        assert_eq!(c.status, CellStatus::Done, "{name} should survive");
    }
    for name in ["table2", "table3"] {
        let c = report.cells.iter().find(|c| c.name == name).unwrap();
        assert_eq!(c.status, CellStatus::Failed, "{name} should fail");
        assert_eq!(c.attempts, 2, "{name} should use every attempt");
    }
    assert!(report.has_contained_failures());
    assert_eq!(report.executed, 4);

    // The incidents are reported with the right causes, and the final
    // attempt of each poisoned cell ends in quarantine.
    let causes: Vec<&str> = report.events.iter().map(|e| e.cause.label()).collect();
    assert!(causes.contains(&"panic"), "{causes:?}");
    assert!(causes.contains(&"deadline"), "{causes:?}");
    let quarantines = report
        .events
        .iter()
        .filter(|e| e.action == ContainmentAction::Quarantined)
        .count();
    assert_eq!(quarantines, 2, "{:?}", report.events);

    // Poison inputs are on disk, one replay file per incident.
    assert_eq!(report.quarantined.len(), 2);
    for q in &report.quarantined {
        let body = std::fs::read_to_string(q).unwrap();
        assert!(body.starts_with("tgc-quarantine v1"), "{body}");
        assert!(body.contains("replay tgc eval"), "{body}");
    }

    // The manifest records the mixed outcome.
    let manifest_path = report.manifest_path.clone().expect("checkpointing was on");
    let manifest = RunManifest::load(&manifest_path).unwrap();
    assert_eq!(manifest.cell("table1").unwrap().status, CellStatus::Done);
    assert_eq!(manifest.cell("table2").unwrap().status, CellStatus::Failed);

    // Resume with the faults removed: exactly the two failed cells
    // re-run, the two finished cells restore from the checkpoint.
    let resumed = HarnessOptions {
        resume: Some(manifest_path),
        checkpoint_dir: Some(ckpt.clone()),
        ..base_opts()
    };
    let r2 = run_harness(&resumed).unwrap();
    assert_eq!(
        r2.executed,
        2,
        "only the failed cells re-run: {}",
        r2.summary()
    );
    assert_eq!(r2.skipped, 2, "{}", r2.summary());
    assert!(!r2.has_contained_failures());
    assert!(r2.events.is_empty());

    // The merged report is byte-identical to a clean, fault-free run.
    let clean = run_harness(&base_opts()).unwrap();
    assert_eq!(r2.merged_output(), clean.merged_output());

    std::fs::remove_dir_all(&ckpt).ok();
    std::fs::remove_dir_all(&quar).ok();
}

#[test]
fn region_level_panic_is_contained_by_the_fallback_chain() {
    use treegion_suite::prelude::*;
    use treegion_suite::treegion::{form_treegions, RobustOptions};

    let (f, _) = treegion_suite::workloads::shapes::figure1();
    let regions = form_treegions(&f);
    let machine = MachineModel::model_4u();
    let opts = RobustOptions {
        panic_on_region: Some(0),
        ..RobustOptions::default()
    };
    let pipeline = Pipeline::with_options(&machine, opts);
    let result = pipeline
        .run_set(&f, &regions, None, &NullObserver)
        .expect("panic must be contained, not propagated");
    // The crash is recorded as a containment-class degradation and the
    // fallback chain produced a replacement schedule.
    assert!(
        result.events.iter().any(|e| e.cause.is_containment()),
        "{:?}",
        result.events
    );
    assert!(
        result.outcomes.len() >= regions.len(),
        "the fallback carve keeps every block scheduled"
    );
    // Deterministic: running it twice gives identical events.
    let again = pipeline.run_set(&f, &regions, None, &NullObserver).unwrap();
    assert_eq!(result.events, again.events);
}
