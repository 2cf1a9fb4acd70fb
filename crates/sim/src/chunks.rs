//! An append-only list for the long-lived, ever-growing tables of a run.

/// Items per chunk of a [`Chunks`] list.
const CHUNK: usize = 2048;

/// An append-only list that grows one fixed-size chunk at a time and
/// never moves what it holds. One vector growing by reallocation leaves a
/// trail of ever larger holes behind it (megabytes at 10^5 items) that
/// nothing else in the process fits, and they land on the run's peak RSS;
/// equal chunks fit each other's holes.
#[derive(Debug, Clone)]
pub struct Chunks<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Chunks<T> {
    /// Append `item`; its index.
    pub fn push(&mut self, item: T) -> usize {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(item),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(item);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        self.len - 1
    }

    /// Items appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The item at index `at`.
    pub fn get(&self, at: usize) -> Option<&T> {
        self.chunks.get(at / CHUNK)?.get(at % CHUNK)
    }

    /// The item at index `at`, to change in place.
    pub fn get_mut(&mut self, at: usize) -> Option<&mut T> {
        self.chunks.get_mut(at / CHUNK)?.get_mut(at % CHUNK)
    }

    /// The items from index `from` on.
    pub fn since(&self, from: usize) -> impl Iterator<Item = &T> {
        let chunks = self.chunks.get(from / CHUNK..).unwrap_or_default();
        chunks.iter().flatten().skip(from % CHUNK)
    }
}
