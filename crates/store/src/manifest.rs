//! The database manifest: the small catalog-metadata file mapping table
//! names to heap files and their (opaque) schema descriptions.
//!
//! A persisted database directory contains one `manifest.tsv` plus one
//! `<table>.heap` file per table. The manifest is a line-oriented text
//! file — trivially inspectable, no external dependencies:
//!
//! ```text
//! # temporal-store manifest v4
//! # epoch 17
//! staff <TAB> staff.heap <TAB> 1f00dcafe <TAB> 3 <TAB> person:str,team:str,ts:int,te:int
//! ```
//!
//! (tab-separated: name, heap file, schema fingerprint in hex, row count,
//! schema string). The schema string is opaque to this crate — the engine
//! layer defines and parses it. Saves are atomic (temp file + rename).
//! The first line names the [`crate::FORMAT_VERSION`] the directory was
//! written in; the WAL header is where the version is checked. The
//! `# epoch` line carries the database's change epoch and is required.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::error::{StoreError, StoreResult};

/// Manifest file name inside a database directory.
pub const MANIFEST_FILE: &str = "manifest.tsv";

/// Per-table metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Heap file name, relative to the database directory.
    pub file: String,
    /// Schema fingerprint (must match every page header of the heap).
    pub fingerprint: u64,
    /// Row count at last save (a cached statistic, re-derived on open).
    pub rows: u64,
    /// Schema description, opaque at this layer.
    pub schema: String,
}

/// The table-name → [`TableMeta`] map of one database directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    tables: BTreeMap<String, TableMeta>,
    /// Snapshot epoch: bumped by every committed write batch and saved
    /// with the manifest, so a reopened database resumes its version
    /// counter instead of restarting at zero. Serialized as a
    /// `# epoch <n>` comment line, which every saved manifest has: a file
    /// without one is refused as corrupt.
    epoch: u64,
}

impl Manifest {
    /// The manifest path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Load the manifest of `dir`; a missing file is an empty manifest, a
    /// file without its `# epoch` line is [`StoreError::Corrupt`].
    pub fn load(dir: &Path) -> StoreResult<Manifest> {
        let path = Self::path_in(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Manifest::default());
            }
            Err(e) => return Err(e.into()),
        };
        let mut tables = BTreeMap::new();
        let mut epoch = None;
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                if let Some(rest) = line.strip_prefix("# epoch ") {
                    epoch = Some(rest.trim().parse::<u64>().map_err(|_| {
                        StoreError::Corrupt(format!("manifest line {}: bad epoch", i + 1))
                    })?);
                }
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 5 {
                return Err(StoreError::Corrupt(format!(
                    "manifest line {}: expected 5 tab-separated fields, got {}",
                    i + 1,
                    fields.len()
                )));
            }
            let fingerprint = u64::from_str_radix(fields[2], 16).map_err(|_| {
                StoreError::Corrupt(format!("manifest line {}: bad fingerprint", i + 1))
            })?;
            let rows = fields[3].parse::<u64>().map_err(|_| {
                StoreError::Corrupt(format!("manifest line {}: bad row count", i + 1))
            })?;
            tables.insert(
                fields[0].to_string(),
                TableMeta {
                    file: fields[1].to_string(),
                    fingerprint,
                    rows,
                    schema: fields[4].to_string(),
                },
            );
        }
        let epoch = epoch.ok_or_else(|| {
            StoreError::Corrupt(format!("{} has no `# epoch` line", path.display()))
        })?;
        Ok(Manifest { tables, epoch })
    }

    /// Atomically save the manifest into `dir` (temp file + rename).
    pub fn save(&self, dir: &Path) -> StoreResult<()> {
        if crate::failpoints::power_cut() {
            return Err(crate::failpoints::power_cut_error());
        }
        std::fs::create_dir_all(dir)?;
        let mut out = format!(
            "# temporal-store manifest v{}\n# epoch {}\n",
            crate::FORMAT_VERSION,
            self.epoch
        );
        for (name, meta) in &self.tables {
            for field in [name.as_str(), meta.file.as_str(), meta.schema.as_str()] {
                if field.contains('\t') || field.contains('\n') {
                    return Err(StoreError::Corrupt(format!(
                        "manifest field may not contain tabs or newlines: {field:?}"
                    )));
                }
            }
            out.push_str(&format!(
                "{name}\t{}\t{:x}\t{}\t{}\n",
                meta.file, meta.fingerprint, meta.rows, meta.schema
            ));
        }
        let tmp = dir.join(format!(".{MANIFEST_FILE}.tmp"));
        match crate::failpoints::hit("manifest::save") {
            Some(crate::failpoints::Action::Crash) => {
                #[cfg(feature = "failpoints")]
                crate::failpoints::trip_power_cut();
                return Err(crate::failpoints::power_cut_error());
            }
            Some(crate::failpoints::Action::Torn { keep }) => {
                // Tear the *temp* file and stop before the rename: the
                // previous manifest must survive untouched.
                let keep = keep.min(out.len());
                std::fs::write(&tmp, &out.as_bytes()[..keep])?;
                #[cfg(feature = "failpoints")]
                crate::failpoints::trip_power_cut();
                return Err(crate::failpoints::power_cut_error());
            }
            Some(crate::failpoints::Action::FlipBit { offset }) => {
                let mut bytes = out.into_bytes();
                let len = bytes.len();
                bytes[offset % len] ^= 1;
                out = String::from_utf8_lossy(&bytes).into_owned();
            }
            None => {}
        }
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, Self::path_in(dir))?;
        Ok(())
    }

    /// Check that every file the manifest references exists in `dir`,
    /// returning a [`StoreError::Missing`] naming the first absent heap
    /// file. Run at open time: failing fast with a clear error
    /// beats a confusing mid-query I/O failure from a half-copied
    /// database directory.
    pub fn verify_files(&self, dir: &Path) -> StoreResult<()> {
        for (name, meta) in &self.tables {
            let heap = dir.join(&meta.file);
            if !heap.is_file() {
                return Err(StoreError::Missing(format!(
                    "table {name:?}: heap file {} referenced by the manifest does not exist",
                    heap.display()
                )));
            }
        }
        Ok(())
    }

    /// The persisted snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the snapshot epoch recorded by the next save.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Metadata of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(name)
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, name: impl Into<String>, meta: TableMeta) {
        self.tables.insert(name.into(), meta);
    }

    /// Remove an entry, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<TableMeta> {
        self.tables.remove(name)
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TableMeta)> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Is the manifest empty?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("talign_store_manifest_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(file: &str) -> TableMeta {
        TableMeta {
            file: file.to_string(),
            fingerprint: 0xdead_beef,
            rows: 12,
            schema: "a:int,ts:int,te:int".to_string(),
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut m = Manifest::default();
        m.insert("r", meta("r.heap"));
        m.insert("staff", meta("staff.heap"));
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.get("r").unwrap().rows, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_roundtrips_and_a_manifest_without_one_is_refused() {
        let dir = tmpdir("epoch");
        let mut m = Manifest::default();
        m.insert("r", meta("r.heap"));
        assert_eq!(m.epoch(), 0);
        m.set_epoch(41);
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back.epoch(), 41);
        assert_eq!(back, m);
        // Every saved manifest has the epoch line: a file without one is
        // refused, not read as epoch 0.
        std::fs::write(
            Manifest::path_in(&dir),
            "old\told.heap\tabc\t7\ta:int,ts:int,te:int\n",
        )
        .unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("no `# epoch` line"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_empty() {
        let dir = tmpdir("missing");
        assert!(Manifest::load(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let dir = tmpdir("corrupt");
        for line in ["r\tonly-two-fields\n", "r\tr.heap\tbeef\t1\ta:int\tsixth\n"] {
            std::fs::write(Manifest::path_in(&dir), line).unwrap();
            assert!(matches!(Manifest::load(&dir), Err(StoreError::Corrupt(_))));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tabs_in_fields_refuse_to_save() {
        let dir = tmpdir("tabs");
        let mut m = Manifest::default();
        m.insert("bad\tname", meta("f.heap"));
        assert!(m.save(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_files_names_the_missing_file() {
        let dir = tmpdir("verify");
        let mut m = Manifest::default();
        m.insert("r", meta("r.heap"));
        let err = m.verify_files(&dir).unwrap_err();
        assert!(matches!(&err, StoreError::Missing(msg) if msg.contains("r.heap")));
        std::fs::write(dir.join("r.heap"), b"").unwrap();
        m.verify_files(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_and_iter() {
        let mut m = Manifest::default();
        m.insert("b", meta("b.heap"));
        m.insert("a", meta("a.heap"));
        let names: Vec<&String> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(m.remove("a").is_some());
        assert!(m.remove("a").is_none());
        assert_eq!(m.len(), 1);
    }
}
