//! Error type for the table store.

use std::fmt;

/// Anything that can go wrong inside the store.
#[derive(Debug)]
pub enum DbError {
    /// A row failed to (de)serialize. Carries the table name and the
    /// underlying serde message.
    Codec { table: String, message: String },
    /// The write-ahead log could not be read or written.
    Wal(std::io::Error),
    /// The write-ahead log contains an entry that is not a line in the
    /// printed shape and is not the final line (a torn final line is
    /// tolerated as an interrupted commit; a torn middle line means real
    /// corruption).
    Corrupt { line: usize, message: String },
    /// A duplicate primary key on `insert` (use `put` to overwrite).
    DuplicateKey { table: String, key: u64 },
    /// A table name that needs a JSON escape (`"`, `\` or a control
    /// character). The log prints names without escapes, so a commit to
    /// such a table is refused before anything is logged.
    TableName { table: String },
    /// The table already holds rows of another type (two record types
    /// sharing a table name, or a queue attached with a second message type).
    TableType { table: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Codec { table, message } => {
                write!(f, "codec error in table `{table}`: {message}")
            }
            DbError::Wal(e) => write!(f, "write-ahead log I/O error: {e}"),
            DbError::Corrupt { line, message } => {
                write!(f, "write-ahead log corrupt at line {line}: {message}")
            }
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table `{table}`")
            }
            DbError::TableName { table } => {
                write!(f, "table name {table:?} needs an escape in the log")
            }
            DbError::TableType { table } => {
                write!(f, "table `{table}` is open as another row type")
            }
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbError::DuplicateKey {
            table: "jobs".into(),
            key: 7,
        };
        assert_eq!(e.to_string(), "duplicate key 7 in table `jobs`");
        let e = DbError::Corrupt {
            line: 3,
            message: "bad json".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::other("disk gone");
        let e: DbError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("disk gone"));
    }
}
