//! Streaming row output for long grid runs.
//!
//! An [`Experiment`](crate::Experiment) still returns the full `Vec<Row>`,
//! but hour-scale grids (the `Paper` scale, sharded fleets) want rows on
//! disk as they complete — a crash then loses minutes, not everything.
//! Sinks receive rows in **completion order**, which under the worker pool
//! is not enumeration order; consumers that care should sort on load.

use std::path::PathBuf;

use crate::report::save_jsonl_append;
use crate::run::Row;

/// Receives rows as the grid produces them.
///
/// Any `FnMut(&Row) + Send` closure is a sink, so ad-hoc progress
/// callbacks need no wrapper type.
pub trait RowSink: Send {
    /// Called once before the run with the number of rows to expect.
    fn start(&mut self, _total: usize) {}

    /// Called for each completed row.
    fn emit(&mut self, row: &Row);

    /// Called once after the last row.
    fn finish(&mut self) {}
}

impl<F: FnMut(&Row) + Send> RowSink for F {
    fn emit(&mut self, row: &Row) {
        self(row)
    }
}

/// Appends each row as one JSON line to a file, creating parent
/// directories on first write.
///
/// Each row is appended as one write of its newline-terminated line, so a
/// killed run leaves whole lines behind, and a truncated final line is
/// skipped by [`JsonlSink::load`]. Lines are never synced: a power loss
/// can drop the most recent rows. I/O errors are reported to stderr once
/// and swallowed — a dying disk should not abort an hour-long grid whose
/// rows are also returned in memory.
pub struct JsonlSink {
    path: PathBuf,
    failed: bool,
}

impl JsonlSink {
    /// Creates a sink appending to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlSink {
            path: path.into(),
            failed: false,
        }
    }

    /// Reads rows back from a JSONL file, skipping unparseable lines
    /// (e.g. a line truncated by a crash).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Vec<Row>> {
        let body = std::fs::read_to_string(path)?;
        Ok(body
            .lines()
            .filter_map(|l| serde_json::from_str::<Row>(l).ok())
            .collect())
    }
}

impl RowSink for JsonlSink {
    fn emit(&mut self, row: &Row) {
        if self.failed {
            return;
        }
        if let Err(e) = save_jsonl_append(&self.path, row) {
            eprintln!(
                "[sink] warning: dropping rows, cannot append to {}: {e}",
                self.path.display()
            );
            self.failed = true;
        }
    }
}

/// Prints a progress line to stderr every `every` rows (and on the last).
pub struct ProgressSink {
    label: String,
    every: usize,
    done: usize,
    total: usize,
}

impl ProgressSink {
    /// Creates a progress reporter with the given label.
    pub fn new(label: impl Into<String>, every: usize) -> Self {
        ProgressSink {
            label: label.into(),
            every: every.max(1),
            done: 0,
            total: 0,
        }
    }
}

impl RowSink for ProgressSink {
    fn start(&mut self, total: usize) {
        self.total = total;
    }

    fn emit(&mut self, _row: &Row) {
        self.done += 1;
        if self.done % self.every == 0 || self.done == self.total {
            eprintln!("[{}] {}/{} rows", self.label, self.done, self.total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seed: u64) -> Row {
        Row {
            task: "sst2".into(),
            algo: "MC".into(),
            dim: 8,
            bits: 4,
            memory: 32,
            seed,
            disagreement: 0.25,
            quality17: 0.8,
            quality18: 0.75,
            measures: None,
        }
    }

    #[test]
    fn closure_is_a_sink() {
        let mut count = 0usize;
        {
            let mut sink = |_: &Row| count += 1;
            sink.emit(&row(0));
            sink.emit(&row(1));
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn jsonl_sink_appends_and_loads() {
        let dir = crate::cache::scratch_dir("jsonl_sink");
        let path = dir.join("rows.jsonl");
        std::fs::remove_file(&path).ok();
        let mut sink = JsonlSink::new(&path);
        sink.start(2);
        sink.emit(&row(0));
        sink.emit(&row(1));
        sink.finish();
        // A second sink appends to the same file.
        let mut sink2 = JsonlSink::new(&path);
        sink2.emit(&row(2));
        let rows = JsonlSink::load(&path).expect("load");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].seed, 2);
        // A truncated trailing line is skipped, earlier rows survive.
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &body[..body.len() - 10]).expect("truncate");
        assert_eq!(JsonlSink::load(&path).expect("load").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
