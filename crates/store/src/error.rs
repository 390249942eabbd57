//! Storage-layer error type.

use std::fmt;

/// Errors produced by the storage layer (paging, buffering, manifest I/O).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes violated the page or manifest format.
    Corrupt(String),
    /// A record cannot fit in a page, or the buffer pool has no evictable
    /// frame (every frame pinned).
    Capacity(String),
    /// The manifest references a file that does not exist on disk — the
    /// database directory is incomplete (partial copy, deleted heap).
    Missing(String),
    /// The directory was written in another on-disk format version.
    Incompatible(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StoreError::Capacity(m) => write!(f, "storage capacity: {m}"),
            StoreError::Missing(m) => write!(f, "missing storage file: {m}"),
            StoreError::Incompatible(m) => write!(f, "incompatible storage format: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias used throughout the storage layer.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_kinds() {
        assert!(StoreError::Corrupt("bad magic".into())
            .to_string()
            .contains("corrupt"));
        let io: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
    }
}
