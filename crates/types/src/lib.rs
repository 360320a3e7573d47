//! Core identifier and event types shared across the `fgcache` workspace.
//!
//! The paper ("Group-Based Management of Distributed File Caches", Amer,
//! Long & Burns, ICDCS 2002) models a file system workload as a *sequence*
//! of whole-file access events — deliberately discarding wall-clock timing,
//! which is workload- and system-load-dependent. These types encode that
//! model: [`FileId`] names a file, [`AccessEvent`] is one event in the
//! sequence, and [`SeqNo`] is a position in the sequence (the only notion of
//! "time" in the whole workspace).
//!
//! # Examples
//!
//! ```
//! use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeqNo};
//!
//! let ev = AccessEvent::new(SeqNo(0), ClientId(1), FileId(42), AccessKind::Read);
//! assert_eq!(ev.file, FileId(42));
//! assert!(ev.kind.is_read());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

pub mod audit;
pub mod error;
pub mod hash;
pub mod json;
pub mod math;
pub mod rng;
pub mod sizing;

pub use audit::InvariantViolation;
pub use error::{ParseAccessKindError, TransportError, TransportErrorKind, ValidationError};
pub use hash::{BuildSplitMix64, FastMap, FastSet};
pub use rng::SeededRng;
pub use sizing::{SizeCostAssigner, SizeDistribution};

/// Identifier of a file in the simulated file system.
///
/// The simulation operates at whole-file granularity (the paper measures
/// hit rates of a whole-file cache on `open` requests), so a `FileId` is the
/// unit that caches store, successor lists track and groups contain.
///
/// `FileId` is a transparent newtype over `u64`; construct one directly from
/// its literal index:
///
/// ```
/// use fgcache_types::FileId;
/// let f = FileId(7);
/// assert_eq!(f.as_u64(), 7);
/// assert_eq!(format!("{f}"), "f7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(pub u64);

impl FileId {
    /// Returns the raw numeric identifier.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<u64> for FileId {
    #[inline]
    fn from(raw: u64) -> Self {
        FileId(raw)
    }
}

impl From<FileId> for u64 {
    #[inline]
    fn from(id: FileId) -> Self {
        id.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of the client (user, host or process stream) that issued an
/// access.
///
/// The paper's traces are gathered per-host; multi-client workloads (the
/// `users` profile) interleave several clients' access streams. Client
/// identity is carried on every event so that predictive models *may*
/// differentiate per-client behaviour, although the paper's core model
/// deliberately does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Returns the raw numeric identifier.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for ClientId {
    #[inline]
    fn from(raw: u32) -> Self {
        ClientId(raw)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Position of an event in an access sequence.
///
/// This is the only notion of time in the workspace: the paper bases all
/// predictions on the *order* of access events, never on wall-clock
/// timestamps, because timing is perturbed by system load and by the
/// predictive mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// Returns the raw sequence number.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next sequence number.
    ///
    /// ```
    /// use fgcache_types::SeqNo;
    /// assert_eq!(SeqNo(3).next(), SeqNo(4));
    /// ```
    #[inline]
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl From<u64> for SeqNo {
    #[inline]
    fn from(raw: u64) -> Self {
        SeqNo(raw)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The kind of a file access event.
///
/// The grouping model treats every kind as an access in the sequence; the
/// distinction matters to the *workload generator* (write-heavy workloads
/// create fresh, unpredictable files) and to trace statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A read access (`open` for reading in the paper's trace model).
    Read,
    /// A write access to an existing file.
    Write,
    /// Creation of a new file (first access to a fresh [`FileId`]).
    Create,
    /// Deletion of a file. Deletions still appear in the access sequence
    /// (the file is touched), but generators use them to retire ids.
    Delete,
}

impl AccessKind {
    /// All access kinds, in a fixed order (useful for tabulation).
    pub const ALL: [AccessKind; 4] = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Create,
        AccessKind::Delete,
    ];

    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for any mutating kind (write, create or delete).
    #[inline]
    pub fn is_mutation(self) -> bool {
        !self.is_read()
    }

    /// A stable one-character code used by the text trace format.
    ///
    /// ```
    /// use fgcache_types::AccessKind;
    /// assert_eq!(AccessKind::Read.code(), 'R');
    /// ```
    #[inline]
    pub fn code(self) -> char {
        match self {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
            AccessKind::Create => 'C',
            AccessKind::Delete => 'D',
        }
    }

    /// Parses the one-character code produced by [`AccessKind::code`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseAccessKindError`] if `code` is not one of `R`, `W`,
    /// `C`, `D`.
    pub fn from_code(code: char) -> Result<Self, ParseAccessKindError> {
        match code {
            'R' => Ok(AccessKind::Read),
            'W' => Ok(AccessKind::Write),
            'C' => Ok(AccessKind::Create),
            'D' => Ok(AccessKind::Delete),
            other => Err(ParseAccessKindError { found: other }),
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Create => "create",
            AccessKind::Delete => "delete",
        };
        f.write_str(name)
    }
}

/// One whole-file access event in a workload sequence.
///
/// Events are ordered by [`SeqNo`]; equal sequence numbers never occur
/// within one trace (validated by `fgcache-trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessEvent {
    /// Position of this event in the access sequence.
    pub seq: SeqNo,
    /// Client that issued the access.
    pub client: ClientId,
    /// File being accessed.
    pub file: FileId,
    /// Kind of access.
    pub kind: AccessKind,
}

impl AccessEvent {
    /// Creates a new access event.
    ///
    /// ```
    /// use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeqNo};
    /// let ev = AccessEvent::new(SeqNo(9), ClientId(0), FileId(3), AccessKind::Write);
    /// assert!(ev.kind.is_mutation());
    /// ```
    #[inline]
    pub fn new(seq: SeqNo, client: ClientId, file: FileId, kind: AccessKind) -> Self {
        AccessEvent {
            seq,
            client,
            file,
            kind,
        }
    }

    /// Convenience constructor for a read by client 0 — the common case in
    /// unit tests and examples that only care about the file sequence.
    #[inline]
    pub fn read(seq: u64, file: u64) -> Self {
        AccessEvent::new(SeqNo(seq), ClientId(0), FileId(file), AccessKind::Read)
    }
}

impl fmt::Display for AccessEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.seq, self.client, self.kind, self.file
        )
    }
}

/// Outcome of a demand access against a cache: hit or miss.
///
/// Used pervasively by `fgcache-cache` and `fgcache-core`; defined here so
/// both crates (and downstream users) share one vocabulary type rather than
/// a `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The file was resident when requested.
    Hit,
    /// The file was absent and had to be fetched.
    Miss,
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Returns `true` for [`AccessOutcome::Miss`].
    #[inline]
    pub fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss)
    }
}

impl fmt::Display for AccessOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessOutcome::Hit => "hit",
            AccessOutcome::Miss => "miss",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_roundtrip_and_display() {
        let id = FileId::from(99u64);
        assert_eq!(u64::from(id), 99);
        assert_eq!(id.as_u64(), 99);
        assert_eq!(id.to_string(), "f99");
    }

    #[test]
    fn file_id_ordering_matches_raw() {
        assert!(FileId(1) < FileId(2));
        assert_eq!(FileId::default(), FileId(0));
    }

    #[test]
    fn client_id_roundtrip_and_display() {
        let c = ClientId::from(7u32);
        assert_eq!(c.as_u32(), 7);
        assert_eq!(c.to_string(), "c7");
    }

    #[test]
    fn seq_no_next_increments() {
        assert_eq!(SeqNo(0).next(), SeqNo(1));
        assert_eq!(SeqNo(41).next().as_u64(), 42);
        assert_eq!(SeqNo(5).to_string(), "#5");
    }

    #[test]
    fn access_kind_codes_roundtrip() {
        for kind in AccessKind::ALL {
            assert_eq!(AccessKind::from_code(kind.code()).unwrap(), kind);
        }
    }

    #[test]
    fn access_kind_rejects_unknown_code() {
        let err = AccessKind::from_code('x').unwrap_err();
        assert_eq!(err.found, 'x');
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn access_kind_read_write_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_mutation());
        assert!(AccessKind::Write.is_mutation());
        assert!(AccessKind::Create.is_mutation());
        assert!(AccessKind::Delete.is_mutation());
    }

    #[test]
    fn access_event_constructors() {
        let ev = AccessEvent::read(3, 10);
        assert_eq!(ev.seq, SeqNo(3));
        assert_eq!(ev.client, ClientId(0));
        assert_eq!(ev.file, FileId(10));
        assert_eq!(ev.kind, AccessKind::Read);
    }

    #[test]
    fn access_event_display_is_nonempty_and_stable() {
        let ev = AccessEvent::new(SeqNo(1), ClientId(2), FileId(3), AccessKind::Write);
        assert_eq!(ev.to_string(), "#1 c2 write f3");
    }

    #[test]
    fn access_outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::Miss.is_miss());
        assert_eq!(AccessOutcome::Hit.to_string(), "hit");
        assert_eq!(AccessOutcome::Miss.to_string(), "miss");
    }

    #[test]
    fn rng_is_reexported() {
        use crate::rng::RandomSource;
        let mut rng = SeededRng::new(7);
        let a = rng.next_u64();
        let mut again = SeededRng::new(7);
        assert_eq!(again.next_u64(), a);
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FileId>();
        assert_send_sync::<ClientId>();
        assert_send_sync::<SeqNo>();
        assert_send_sync::<AccessEvent>();
        assert_send_sync::<AccessOutcome>();
    }
}
