//! The crash-recovery campaign: kill `repro` at every registered crash
//! site, resume, and require bit-identical output.
//!
//! The in-process fault campaign ([`dss_faultkit::run_campaign`]) proves
//! layers *classify* corrupt input; this campaign proves the durability
//! protocol *survives the process dying* — which no in-process test can
//! show, because the site under test calls [`std::process::abort`]. So the
//! checker becomes the harness: for each site in
//! [`dss_faultkit::crash::CRASH_SITES`] it
//!
//! 1. runs an uninterrupted baseline `repro` sweep and keeps its stdout and
//!    (normalized) benchmark report;
//! 2. spawns `repro` as a child with the site armed through the environment
//!    ([`dss_faultkit::crash::ENV_SITE`]) at a seed-chosen hit count, and
//!    requires the abort to actually kill it (SIGABRT);
//! 3. reruns `repro --resume` over the crashed state directory, unarmed,
//!    and requires exit 0, stdout byte-identical to the baseline, and a
//!    benchmark report equal after normalization (timings, RSS, and resume
//!    provenance are honest measurements and differ by design — everything
//!    deterministic must match).
//!
//! A site is **Recovered** only if all three hold; anything else — the
//! child surviving its own armed site, a resume failure, a single divergent
//! stdout byte — is a finding. Hit counts are drawn from the campaign
//! seed via [`dss_faultkit::FaultPlan::rng_for`], so `--seed N` replays the
//! exact kill schedule and different seeds kill at different block writes,
//! manifest appends, and point boundaries. One schedule can hide a site —
//! the default seed never left a complete trace file before a partial one —
//! so without `--seed` the campaign runs every seed of [`DEFAULT_SEEDS`].

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dss_faultkit::crash::{CrashSite, CRASH_SITES, ENV_HITS, ENV_SITE};
use dss_faultkit::FaultPlan;
use rand::Rng;

/// The sweep the campaign exercises: small enough to rerun per site, big
/// enough to cross every crash site (streamed block writes, manifest
/// appends, many sweep points).
const REPRO_ARGS: &[&str] = &[
    "fig8",
    "--sf",
    "0.003",
    "--jobs",
    "2",
    "--trace-mode",
    "streamed",
];

/// The kill schedules a campaign runs when none is named: the one every
/// earlier campaign ran, the one that found the skipped-processor resume bug
/// (`crash.trace.pre-finish` at hit 2), and one more.
pub const DEFAULT_SEEDS: [u64; 3] = [1, 5, 11];

/// One site's verdict under one seed.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// The campaign seed that chose the hit.
    pub seed: u64,
    /// The crash site that was armed.
    pub site: &'static str,
    /// The durability mechanism under test.
    pub layer: &'static str,
    /// The 1-based hit at which the site fired.
    pub hit: u64,
    /// Whether the full kill→resume→compare cycle held.
    pub recovered: bool,
    /// What happened (the failure, or the recovery evidence).
    pub detail: String,
}

/// The campaign's result: per-site verdicts plus where the on-disk evidence
/// of a failed site was kept.
#[derive(Clone, Debug, Default)]
pub struct CrashReport {
    /// Per-site outcomes, in [`CRASH_SITES`] order.
    pub outcomes: Vec<CrashOutcome>,
    /// Work directories preserved for post-mortem (failed sites only).
    pub kept: Vec<PathBuf>,
}

impl CrashReport {
    /// Number of sites that did not recover.
    pub fn findings(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.recovered).count()
    }
}

/// Locates the `repro` binary the campaign drives: `DSS_CHECK_REPRO` if
/// set, else a sibling of the running `dss-check` executable (both live in
/// the same cargo target directory).
///
/// # Errors
///
/// When no binary exists at either location.
#[expect(
    clippy::disallowed_methods,
    reason = "locates the child binary to drive; its output is what the campaign compares"
)]
pub fn find_repro() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("DSS_CHECK_REPRO") {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(format!("DSS_CHECK_REPRO={}: no such file", path.display()))
        };
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(if cfg!(windows) { "repro.exe" } else { "repro" });
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "repro binary not found at {} — build it first (`cargo build -p dss-bench --bin \
             repro`) or set DSS_CHECK_REPRO",
            sibling.display()
        ))
    }
}

/// Strips the honest-measurement fields from a `--bench-json` report,
/// keeping everything a resumed run must reproduce exactly: the schema and
/// run parameters, the degradation record, and each experiment's name.
/// Timings, heap counts, RSS, and the resume-provenance counters differ
/// between a fresh and a resumed run by construction.
pub fn normalize_bench(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        let t = line.trim_start();
        let deterministic = [
            "\"schema\"",
            "\"jobs\"",
            "\"trace_mode\"",
            "\"scale\"",
            "\"point_errors\"",
            "\"failed_experiments\"",
        ]
        .iter()
        .any(|k| t.starts_with(k));
        if deterministic {
            out.push_str(t);
            out.push('\n');
        } else if let Some(rest) = t.strip_prefix("{\"name\": \"") {
            if let Some(name) = rest.split('"').next() {
                out.push_str(name);
                out.push('\n');
            }
        }
    }
    out
}

/// Runs `repro` with `extra` arguments appended to the campaign sweep and
/// optional crash arming, capturing output.
fn run_repro(
    repro: &Path,
    state: &Path,
    extra: &[&str],
    arm: Option<(&str, u64)>,
) -> Result<Output, String> {
    let mut cmd = Command::new(repro);
    cmd.args(REPRO_ARGS)
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        // The child must not inherit an armed site from the checker's own
        // environment (or resume runs would crash too).
        .env_remove(ENV_SITE)
        .env_remove(ENV_HITS);
    if let Some((site, hit)) = arm {
        cmd.env(ENV_SITE, site).env(ENV_HITS, hit.to_string());
    }
    cmd.output()
        .map_err(|e| format!("spawning {}: {e}", repro.display()))
}

/// Whether the child was killed by the abort its armed crash site raised.
fn died_of_abort(out: &Output) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        out.status.signal() == Some(libc_sigabrt())
    }
    #[cfg(not(unix))]
    {
        !out.status.success()
    }
}

/// SIGABRT's number, avoiding a libc dependency.
#[cfg(unix)]
fn libc_sigabrt() -> i32 {
    6
}

/// The last few lines of a child's stderr, for failure details.
fn stderr_tail(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = text.lines().rev().take(3).collect();
    lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// Runs the campaign: under each of `seeds`, every crash site (or just
/// `only`) killed at a seed-chosen hit, resumed, and compared against one
/// shared uninterrupted baseline. Work directories live under `work`;
/// directories of failed sites are kept for post-mortem, everything else is
/// removed.
///
/// # Errors
///
/// Environment errors only (no baseline, unwritable work dir, unknown
/// `only` site); a site that fails to recover is a finding in the report,
/// not an error.
pub fn run_crash_campaign(
    repro: &Path,
    work: &Path,
    seeds: &[u64],
    only: Option<&str>,
) -> Result<CrashReport, String> {
    let sites: Vec<&CrashSite> = match only {
        Some(name) => {
            let found: Vec<_> = CRASH_SITES.iter().filter(|s| s.name == name).collect();
            if found.is_empty() {
                return Err(format!("--site {name}: no such crash site"));
            }
            found
        }
        None => CRASH_SITES.iter().collect(),
    };
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;

    // One uninterrupted run is the oracle every resumed run must match.
    let base_state = work.join("baseline");
    let base_json = work.join("baseline.json");
    let base = run_repro(
        repro,
        &base_state,
        &["--bench-json", &base_json.display().to_string()],
        None,
    )?;
    if !base.status.success() {
        return Err(format!(
            "baseline repro run failed ({}): {}",
            base.status,
            stderr_tail(&base)
        ));
    }
    let base_stdout = base.stdout;
    let base_bench = normalize_bench(
        &std::fs::read_to_string(&base_json)
            .map_err(|e| format!("reading {}: {e}", base_json.display()))?,
    );

    let mut report = CrashReport::default();
    let schedule = seeds
        .iter()
        .flat_map(|&seed| sites.iter().map(move |site| (seed, site)));
    for (seed, site) in schedule {
        // Early hits exist at every site (the sweep has 15 points and many
        // more block writes/manifest appends), so the schedule stays valid
        // for all of them while still varying with the seed.
        let hit = FaultPlan::new(seed).rng_for(site.name).gen_range(1..=3u64);
        let dir = work.join(format!("seed{seed}-{}", site.name.replace('.', "-")));
        let _ = std::fs::remove_dir_all(&dir);
        let state = dir.join("state");
        let bench = dir.join("resumed.json");

        let crashed = run_repro(repro, &state, &[], Some((site.name, hit)))?;
        if !died_of_abort(&crashed) {
            report.outcomes.push(CrashOutcome {
                seed,
                site: site.name,
                layer: site.layer,
                hit,
                recovered: false,
                detail: format!(
                    "armed site did not kill the child (status {}): {}",
                    crashed.status,
                    stderr_tail(&crashed)
                ),
            });
            report.kept.push(dir);
            continue;
        }

        let resumed = run_repro(
            repro,
            &state,
            &["--resume", "--bench-json", &bench.display().to_string()],
            None,
        )?;
        let detail;
        let recovered;
        if !resumed.status.success() {
            recovered = false;
            detail = format!(
                "resume failed ({}): {}",
                resumed.status,
                stderr_tail(&resumed)
            );
        } else if resumed.stdout != base_stdout {
            recovered = false;
            detail = "resumed stdout diverged from the uninterrupted baseline".to_string();
        } else {
            let bench_text = std::fs::read_to_string(&bench)
                .map_err(|e| format!("reading {}: {e}", bench.display()))?;
            if normalize_bench(&bench_text) != base_bench {
                recovered = false;
                detail = "resumed benchmark report diverged after normalization".to_string();
            } else {
                recovered = true;
                detail = format!(
                    "killed at hit {hit}, resumed to bit-identical stdout and benchmark report"
                );
            }
        }
        if recovered {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            report.kept.push(dir);
        }
        report.outcomes.push(CrashOutcome {
            seed,
            site: site.name,
            layer: site.layer,
            hit,
            recovered,
            detail,
        });
    }
    if report.findings() == 0 {
        let _ = std::fs::remove_dir_all(work);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_keeps_only_the_deterministic_fields() {
        let json = "{\n  \"schema\": \"dss-bench-repro/v8\",\n  \"jobs\": 2,\n  \
                    \"trace_mode\": \"streamed\",\n  \"scale\": 0.003,\n  \
                    \"resume\": {\"mode\": \"fresh\", \"crash_site\": null, \
                    \"points_loaded\": 0, \"points_computed\": 15},\n  \
                    \"total_wall_ns\": 12345,\n  \"point_errors\": [],\n  \
                    \"failed_experiments\": [],\n  \"experiments\": [\n    \
                    {\"name\": \"fig8/fig9\", \"wall_ns\": 999, \"points_loaded\": 0}\n  ]\n}\n";
        let norm = normalize_bench(json);
        assert!(norm.contains("\"schema\": \"dss-bench-repro/v8\","));
        assert!(norm.contains("\"scale\": 0.003,"));
        assert!(norm.contains("fig8/fig9"));
        assert!(!norm.contains("wall_ns"), "timings must be stripped");
        assert!(!norm.contains("resume"), "provenance must be stripped");
        assert!(!norm.contains("12345"));
    }

    #[test]
    fn normalization_is_insensitive_to_measurement_noise() {
        let a = "{\n  \"schema\": \"x\",\n  \"total_wall_ns\": 1,\n  \
                 \"experiments\": [\n    {\"name\": \"fig12\", \"wall_ns\": 7}\n  ]\n}\n";
        let b = "{\n  \"schema\": \"x\",\n  \"total_wall_ns\": 999999,\n  \
                 \"experiments\": [\n    {\"name\": \"fig12\", \"wall_ns\": 123456}\n  ]\n}\n";
        assert_eq!(normalize_bench(a), normalize_bench(b));
    }

    #[test]
    fn campaign_sweep_arguments_stay_streamed() {
        // The campaign only proves trace-file salvage if the sweep records
        // block files; materialized mode would silently weaken it.
        assert!(REPRO_ARGS.contains(&"--trace-mode"));
        assert!(REPRO_ARGS.contains(&"streamed"));
    }
}
