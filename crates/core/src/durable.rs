//! What a campaign keeps on disk, and the only code that makes bytes
//! durable (DESIGN.md §10 "Durable writes").
//!
//! [`CampaignFiles`] is the layout every driver of the run loop shares
//! — dataset CSV, checkpoint, optional metrics CSV — and its `open` the
//! one place that decides between a fresh start and a resume; the
//! opened [`Campaign`] holds one [`CsvSink`] over both CSVs. Below it
//! are the two write primitives: `CsvFile`, an append-only CSV (the
//! sink's two streams, the Explorer's curve), and `replace`, tmp +
//! rename ([`Checkpoint::save`], a job's state marker and stored spec).
//! `sync_data` and `rename` appear nowhere else in the crate, so this
//! file is where crash injection attaches.

use crate::engine::{
    Checkpoint, CsvSink, Engine, Progress, ReuseMode, RunControl, RunPlan, RunSummary,
};
use crate::error::ArmdseError;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Atomically replace `path` with `body` (old file or new, never a mix).
pub(crate) fn replace(path: &Path, body: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// An append-only CSV file: a header line, then data lines, buffered
/// ([`Write`]) and durable up to the last `sync`.
pub(crate) struct CsvFile {
    w: BufWriter<File>,
    path: PathBuf,
}

impl CsvFile {
    /// Create (truncate) `path` and write its header line with `header`.
    pub(crate) fn create(
        path: &Path,
        header: impl FnOnce(&mut CsvFile) -> io::Result<()>,
    ) -> Result<CsvFile, ArmdseError> {
        let mut file = CsvFile {
            w: BufWriter::new(File::create(path)?),
            path: path.to_path_buf(),
        };
        header(&mut file)?;
        Ok(file)
    }

    /// Open `path` at its end (the header is already there).
    pub(crate) fn append(path: &Path) -> Result<CsvFile, ArmdseError> {
        Ok(CsvFile {
            w: BufWriter::new(OpenOptions::new().append(true).open(path)?),
            path: path.to_path_buf(),
        })
    }

    /// Make everything written so far durable.
    pub(crate) fn sync(&mut self) -> Result<(), ArmdseError> {
        self.w.flush()?;
        self.w.get_ref().sync_data().map_err(ArmdseError::from)
    }

    /// Cut the file back to its header plus the leading complete data
    /// lines `covered` accepts. `covered` returns how many `unit`s the
    /// file holds once a line is kept, or `None` to cut there; a total
    /// other than `want` means the file is behind its checkpoint.
    pub(crate) fn cut_tail(
        &mut self,
        want: usize,
        unit: &str,
        mut covered: impl FnMut(&[u8]) -> Option<usize>,
    ) -> Result<(), ArmdseError> {
        self.w.flush()?;
        let body = std::fs::read(&self.path)?;
        let (mut end, mut have) = (0usize, 0usize);
        for (i, line) in body.split_inclusive(|&b| b == b'\n').enumerate() {
            if line.last() != Some(&b'\n') {
                break; // torn tail
            }
            if i > 0 {
                match covered(line) {
                    Some(n) => have = n,
                    None => break,
                }
            }
            end += line.len();
        }
        if have != want {
            return Err(ArmdseError::Checkpoint(format!(
                "{}: holds {have} {unit} but the checkpoint recorded {want} — \
                 the file is behind its checkpoint",
                self.path.display()
            )));
        }
        if end < body.len() {
            self.w.get_ref().set_len(end as u64)?;
        }
        Ok(())
    }

    /// [`CsvFile::cut_tail`] for a file whose every data line is one
    /// `unit`: keep the first `want` of them.
    pub(crate) fn cut_lines(&mut self, want: usize, unit: &str) -> Result<(), ArmdseError> {
        let mut seen = 0usize;
        self.cut_tail(want, unit, |_| {
            seen += 1;
            (seen <= want).then_some(seen)
        })
    }
}

impl Write for CsvFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.w.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Where one campaign lives on disk (paths only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignFiles {
    /// The streamed dataset CSV.
    pub csv: PathBuf,
    /// The campaign position, replaced atomically after every chunk.
    pub checkpoint: PathBuf,
    /// The per-job metrics CSV, for campaigns that stream one.
    pub metrics: Option<PathBuf>,
}

impl CampaignFiles {
    /// Open the campaign for a run. Unless `fresh`, an existing
    /// checkpoint is loaded and the sinks open at their ends (the run
    /// loop cuts them back once it has validated the checkpoint);
    /// otherwise the CSVs are created, truncating what was there. The
    /// checkpoint file is never touched: a fresh run over a stale one
    /// replaces it at its first chunk boundary, so a partial CSV is
    /// never on disk without a checkpoint saying so. A checkpoint whose
    /// CSV is gone is an [`ArmdseError::Checkpoint`] naming both paths.
    pub fn open(&self, fresh: bool) -> Result<Campaign, ArmdseError> {
        let position = if !fresh && self.checkpoint.exists() {
            if !self.csv.exists() {
                return Err(ArmdseError::Checkpoint(format!(
                    "{}: the dataset it positions, {}, is gone — restore the CSV, \
                     or delete the checkpoint to start over",
                    self.checkpoint.display(),
                    self.csv.display()
                )));
            }
            Some(Checkpoint::load(&self.checkpoint)?)
        } else {
            None
        };
        let resume = position.is_some();
        let mut sink = if resume {
            CsvSink::append(&self.csv)?
        } else {
            CsvSink::create(&self.csv)?
        };
        if let Some(path) = &self.metrics {
            sink = sink.with_metrics(path, resume)?;
        }
        Ok(Campaign {
            checkpoint: self.checkpoint.clone(),
            sink,
            position,
        })
    }
}

/// An opened campaign: its sinks and the position it continues from,
/// alive only while a run holds it.
pub struct Campaign {
    checkpoint: PathBuf,
    /// The campaign's sink: the dataset CSV, and the metrics CSV when
    /// the campaign streams one.
    pub sink: CsvSink,
    /// The loaded checkpoint: `Some` exactly when the run resumes.
    pub position: Option<Checkpoint>,
}

impl Campaign {
    /// [`Engine::run_controlled`] into these sinks, checkpointing every
    /// chunk and resuming from `position` when there is one (the run
    /// takes it: the checkpoint is parsed once, by `open`).
    pub fn run<'a>(
        &'a mut self,
        engine: &Engine,
        plan: &RunPlan,
        observer: Option<&'a mut dyn FnMut(&Progress) -> bool>,
    ) -> Result<RunSummary, ArmdseError> {
        let ctl = RunControl {
            checkpoint: Some(&self.checkpoint),
            position: self.position.take(),
            observer,
            reuse: ReuseMode::Inherit,
        };
        engine.run_controlled(plan, &mut self.sink, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RowSink;
    use crate::jobstore::JobSpec;
    use crate::space::ParamSpace;
    use armdse_kernels::{App, WorkloadScale};

    /// A campaign's files in a fresh scratch directory.
    fn files(tag: &str) -> CampaignFiles {
        let dir = std::env::temp_dir().join(format!("armdse_durable_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        CampaignFiles {
            csv: dir.join("dataset.csv"),
            checkpoint: dir.join("dataset.ckpt"),
            metrics: Some(dir.join("metrics.csv")),
        }
    }

    /// 3 configs x 2 apps in chunks of 2 jobs: three chunk boundaries.
    fn plan() -> RunPlan {
        let spec = JobSpec {
            configs: 3,
            scale: WorkloadScale::Tiny,
            seed: 0xD0_AB1E,
            threads: 2,
            apps: vec![App::Stream, App::TeaLeaf],
            chunk_jobs: 2,
            ..JobSpec::default()
        };
        spec.plan(&ParamSpace::paper()).unwrap()
    }

    /// Open and run, pausing after `pause_after` chunks when given.
    fn run(
        files: &CampaignFiles,
        fresh: bool,
        pause_after: Option<usize>,
    ) -> Result<RunSummary, ArmdseError> {
        let mut chunks = 0;
        let mut observer = |_: &Progress| {
            chunks += 1;
            pause_after.is_none_or(|n| chunks < n)
        };
        files
            .open(fresh)?
            .run(&Engine::idealized(), &plan(), Some(&mut observer))
    }

    fn bytes(files: &CampaignFiles) -> (Vec<u8>, Vec<u8>) {
        let metrics = files.metrics.as_ref().unwrap();
        (
            std::fs::read(&files.csv).unwrap(),
            std::fs::read(metrics).unwrap(),
        )
    }

    fn header_only(path: &Path) -> bool {
        let body = std::fs::read_to_string(path).unwrap();
        body.lines().count() == 1 && body.ends_with('\n')
    }

    #[test]
    fn open_decides_fresh_or_resume_once_for_every_driver() {
        let reference = files("reference");
        assert!(run(&reference, false, None).unwrap().completed);
        let want = bytes(&reference);

        // No files: a fresh campaign, whatever `fresh` says.
        let f = files("nothing");
        let campaign = f.open(false).unwrap();
        assert!(campaign.position.is_none() && campaign.sink.wants_metrics());
        drop(campaign);
        assert!(header_only(&f.csv) && header_only(f.metrics.as_ref().unwrap()));
        assert!(!f.checkpoint.exists(), "open never writes the checkpoint");

        // Checkpoint + CSV: resumes at the checkpoint, and what a crash
        // left past it (a whole row, then a torn one) is cut.
        let f = files("resume");
        assert!(!run(&f, true, Some(1)).unwrap().completed);
        for (path, full) in [(&f.csv, &want.0), (f.metrics.as_ref().unwrap(), &want.1)] {
            let paused = std::fs::read(path).unwrap().len();
            let next_line = full[paused..].iter().position(|&b| b == b'\n').unwrap() + 1;
            std::fs::write(path, &full[..paused + next_line + 10]).unwrap();
        }
        let at = f.open(false).unwrap().position.expect("resumes");
        assert_eq!((at.jobs_done, at.rows), (2, 2));
        let s = run(&f, false, None).unwrap();
        assert!(s.completed && s.resumed_from == 2);
        assert_eq!(bytes(&f), want);

        // `fresh` over an existing pair: CSVs truncated, checkpoint
        // left for the first chunk to replace.
        let f = files("fresh_over_stale");
        assert!(!run(&f, true, Some(2)).unwrap().completed);
        let stale = std::fs::read(&f.checkpoint).unwrap();
        let campaign = f.open(true).unwrap();
        assert!(campaign.position.is_none());
        drop(campaign);
        assert!(header_only(&f.csv) && header_only(f.metrics.as_ref().unwrap()));
        assert_eq!(std::fs::read(&f.checkpoint).unwrap(), stale);
        assert!(run(&f, true, None).unwrap().completed);
        assert_eq!(bytes(&f), want);

        // Checkpoint without its CSV: one typed error, both paths.
        let f = files("csv_gone");
        assert!(!run(&f, true, Some(1)).unwrap().completed);
        std::fs::remove_file(&f.csv).unwrap();
        let err = f.open(false).err().expect("refused");
        assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&f.csv.display().to_string())
                && msg.contains(&f.checkpoint.display().to_string()),
            "{msg}"
        );
        assert!(!f.csv.exists(), "a refused open creates nothing");

        // Metrics file gone on resume: behind its checkpoint.
        let f = files("metrics_gone");
        assert!(!run(&f, true, Some(1)).unwrap().completed);
        std::fs::remove_file(f.metrics.as_ref().unwrap()).unwrap();
        let err = run(&f, false, None).unwrap_err();
        assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("behind its checkpoint"), "{err}");

        for f in [reference, f] {
            let _ = std::fs::remove_dir_all(f.csv.parent().unwrap());
        }
    }

    #[test]
    fn replace_swaps_the_whole_file_and_leaves_no_temporary() {
        let f = files("replace");
        replace(&f.checkpoint, "first\n").unwrap();
        replace(&f.checkpoint, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&f.checkpoint).unwrap(), "second\n");
        let dir = f.csv.parent().unwrap();
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
