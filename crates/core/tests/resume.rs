//! Checkpoint/resume through the experiment harness: journaled sweep points
//! are served from the manifest without re-simulation, and the served
//! results are identical to freshly computed ones — the invariant the
//! byte-identical `repro --resume` output rests on.

use std::path::PathBuf;

use dss_core::{config_fingerprint, CheckpointJournal, Workbench};
use dss_query::DbConfig;

fn config() -> DbConfig {
    DbConfig {
        scale: 0.001,
        nbuffers: 1024,
        ..DbConfig::default()
    }
}

/// Drains `wb`'s tally down to its `(loaded, computed)` point counts.
fn counts(wb: &mut Workbench) -> (u64, u64) {
    let tally = wb.take_tally();
    (tally.points_loaded, tally.points_computed)
}

#[expect(clippy::unwrap_used, reason = "scratch directories must exist")]
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journaled_sweep_resumes_without_recomputation() {
    let dir = temp_dir("sweep");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.line_size_sweep(6);
    assert_eq!(counts(&mut wb), (0, 5), "all five points computed");

    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    assert_eq!(journal.fresh_reason(), None);
    assert_eq!(journal.replayed(), 5);
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let resumed = wb2.line_size_sweep(6);
    assert_eq!(counts(&mut wb2), (5, 0), "all five points loaded");

    assert_eq!(fresh.len(), resumed.len());
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.l2_line, b.l2_line);
        assert_eq!(a.stats, b.stats, "journaled point identical to computed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_journal_recomputes_only_whats_missing() {
    let dir = temp_dir("partial");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.line_size_sweep(6);

    // Tear the journal after its third record, as a mid-sweep crash would.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let keep: Vec<&str> = text.lines().take(4).collect();
    std::fs::write(&manifest, format!("{}\n", keep.join("\n"))).unwrap();

    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    assert_eq!(journal.replayed(), 3);
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let resumed = wb2.line_size_sweep(6);
    assert_eq!(counts(&mut wb2), (3, 2), "two points recomputed");
    for (a, b) in fresh.iter().zip(&resumed) {
        assert_eq!(a.stats, b.stats);
    }
    // The recomputed points were re-journaled: a second resume loads all 5.
    assert_eq!(
        CheckpointJournal::resume(&manifest, fp).unwrap().replayed(),
        5
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reuse_experiment_is_served_from_the_journal() {
    let dir = temp_dir("reuse");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let fresh = wb.reuse_experiment(6, 3);
    assert_eq!(counts(&mut wb), (0, 3));

    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(CheckpointJournal::resume(&manifest, fp).unwrap());
    let resumed = wb2.reuse_experiment(6, 3);
    assert_eq!(counts(&mut wb2), (3, 0));
    assert_eq!(fresh.cold, resumed.cold);
    assert_eq!(fresh.warm_same, resumed.warm_same);
    assert_eq!(fresh.warm_other, resumed.warm_other);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_fingerprint_recomputes_everything() {
    let dir = temp_dir("fp");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = Workbench::new(&config(), 2).with_jobs(2);
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let _ = wb.line_size_sweep(6);

    // A journal from a different configuration must not be trusted.
    let other_fp = config_fingerprint(&config(), 4);
    assert_ne!(fp, other_fp);
    let journal = CheckpointJournal::resume(&manifest, other_fp).unwrap();
    assert!(journal.fresh_reason().unwrap().contains("fingerprint"));
    let mut wb2 = Workbench::new(&config(), 2).with_jobs(2);
    wb2.set_checkpoint(journal);
    let _ = wb2.line_size_sweep(6);
    assert_eq!(counts(&mut wb2), (0, 5));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_state_dir_from_before_the_packed_block_format_is_refused() {
    // What `config_fingerprint(&config(), 2)` was while block files were
    // `DSSTRB01`: the journal such a run left behind vouches for trace
    // files this build reads as `BadMagic`.
    const FP_WITH_DSSTRB01: u64 = 0x3760_426c_3379_75ff;
    let dir = temp_dir("oldfmt");
    let manifest = dir.join("manifest.ckpt");
    drop(CheckpointJournal::create(&manifest, FP_WITH_DSSTRB01).unwrap());

    let fp = config_fingerprint(&config(), 2);
    assert_ne!(fp, FP_WITH_DSSTRB01);
    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    let reason = journal.fresh_reason().expect("starts fresh");
    assert!(reason.contains("fingerprint mismatch"), "{reason}");
    assert_eq!(journal.replayed(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_partial_file_after_a_complete_one_regenerates_the_uninterrupted_bytes() {
    // Q3's trace depends on what the processors before it left in the
    // buffer pool and lock tables, so the set is recorded as a whole: a
    // complete file beside a torn one is rewritten with it.
    let dir = temp_dir("skipped-proc");
    let streamed = || {
        let mut wb = Workbench::new(&config(), 2);
        wb.set_trace_dir(dir.clone());
        wb
    };
    let paths = streamed().trace_files(3, 0).paths().to_vec();
    let whole: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
    // Processor 1 died inside a block write; processor 0 had finished.
    std::fs::write(&paths[1], &whole[1][..whole[1].len() / 2]).unwrap();

    let _ = streamed().trace_files(3, 0);
    for (path, bytes) in paths.iter().zip(&whole) {
        assert!(
            std::fs::read(path).unwrap() == *bytes,
            "{} differs from the uninterrupted run's",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
