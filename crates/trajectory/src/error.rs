//! Error types for the trajectory crate.

use crate::cursor::Truncated;
use std::fmt;
use std::io;

/// Errors produced by trajectory construction, preprocessing and I/O.
#[derive(Debug)]
pub enum TrajError {
    /// A generator or preprocessing step was configured with
    /// out-of-range parameters (non-positive extent, `max_len <
    /// min_len`, …).
    InvalidConfig(String),
    /// A trajectory had fewer points than the operation requires.
    TooShort {
        /// Number of points present.
        got: usize,
        /// Minimum number of points required.
        need: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point within the trajectory.
        index: usize,
    },
    /// A grid was configured with a non-positive cell size or zero extent.
    InvalidGrid(String),
    /// A dataset split ratio was invalid (negative, or summing above 1).
    InvalidSplit(String),
    /// A parse failure while reading a serialized corpus.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Description of what failed to parse.
        msg: String,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TrajError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort { got, need } => {
                write!(f, "trajectory has {got} points, needs at least {need}")
            }
            Self::NonFiniteCoordinate { index } => {
                write!(f, "non-finite coordinate at point index {index}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            Self::InvalidGrid(msg) => write!(f, "invalid grid: {msg}"),
            Self::InvalidSplit(msg) => write!(f, "invalid split: {msg}"),
            Self::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TrajError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TrajError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A binary corpus that ends mid-field is a parse failure (line 0: the
/// binary format has no lines).
impl From<Truncated> for TrajError {
    fn from(e: Truncated) -> Self {
        Self::Parse {
            line: 0,
            msg: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TrajError::TooShort { got: 3, need: 10 };
        assert!(e.to_string().contains('3') && e.to_string().contains("10"));
        let e = TrajError::Parse {
            line: 7,
            msg: "bad float".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts() {
        let ioe = io::Error::new(io::ErrorKind::NotFound, "missing");
        let e: TrajError = ioe.into();
        assert!(matches!(e, TrajError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
