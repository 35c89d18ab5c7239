//! `no-wallclock-in-fingerprint` — cache, codec, and fingerprint modules
//! must not read wall-clock time.
//!
//! Every cache file in this workspace is keyed and validated by
//! content-derived fingerprints so that shard fleets and warm re-runs are
//! bitwise equal to cold runs. A timestamp folded into a fingerprint, a
//! cache header, or a temp-file name that later leaks into content would
//! silently vary per run — the same class of per-process nondeterminism
//! as hash iteration order, but guaranteed to differ every time.
//! (`atomic_write` deliberately derives temp names from the process id
//! plus an atomic counter, not the clock.)
//!
//! Scoped to files whose path mentions `cache`, `codec`, or
//! `fingerprint`, plus all of `crates/stream/src/**` — the incremental
//! service's whole value is that streamed state re-fingerprints and
//! checkpoints bitwise, so none of its modules may fold the clock into
//! state — and all of `crates/fleet/src/**`: the fleet ships cache files
//! between machines by fingerprint and re-dispatches work on lease
//! timeouts, so its library code takes time as an *injected* `now_ms`
//! (the bench binaries supply a monotonic epoch) rather than reading a
//! clock that could leak into retry schedules or shipped state. Timing
//! *measurement* (e.g. the fleet binaries' wall-clock reports, the
//! incremental-retrain bench) is fine and stays out of scope.

use crate::rules::{Finding, Rule};
use crate::source::SourceFile;

pub struct NoWallclockInFingerprint;

impl Rule for NoWallclockInFingerprint {
    fn id(&self) -> &'static str {
        "no-wallclock-in-fingerprint"
    }

    fn description(&self) -> &'static str {
        "no SystemTime::now/Instant::now in cache/codec/fingerprint modules, \
         crates/stream/src/**, or crates/fleet/src/**; cached artifacts and \
         fleet schedules must be bitwise reproducible"
    }

    fn explain(&self) -> &'static str {
        "WHY: every cache artifact is keyed and validated by content-derived \
         fingerprints so warm re-runs and shard fleets reproduce cold runs \
         bitwise. A clock read folded into a fingerprint, header, or retry \
         schedule varies every run — guaranteed nondeterminism.\n\
         EXAMPLE: let stamp = SystemTime::now();  // in a cache/codec module\n\
         FIX: derive state from content (fingerprints, counters) and take time as \
         an injected `now_ms` parameter where scheduling needs it.\n\
         SUPPRESS: justified only for pure *measurement* (a bench report) that \
         provably never leaks into cached state."
    }

    fn applies_to(&self, rel_path: &str) -> bool {
        if rel_path.starts_with("crates/stream/src/") || rel_path.starts_with("crates/fleet/src/") {
            return true;
        }
        let p = rel_path.to_ascii_lowercase();
        p.contains("cache") || p.contains("codec") || p.contains("fingerprint")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut findings = Vec::new();
        for i in 0..toks.len() {
            let t = &toks[i];
            if !(t.is_ident("SystemTime") || t.is_ident("Instant")) {
                continue;
            }
            if matches!(toks.get(i + 1), Some(a) if a.is_punct("::"))
                && matches!(toks.get(i + 2), Some(b) if b.is_ident("now"))
            {
                findings.push(Finding::new(
                    self.id(),
                    file,
                    t.line,
                    format!(
                        "`{}::now` in a cache/codec/fingerprint module: wall-clock values \
                         make cached artifacts differ per run, breaking bitwise \
                         reproducibility",
                        t.text
                    ),
                ));
            }
        }
        findings
    }
}
