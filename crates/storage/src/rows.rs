//! Chunked, copy-on-write row storage — the substrate for MVCC snapshot
//! reads.
//!
//! A [`Rows`] is a sequence of tuples stored as *sealed* immutable chunks
//! (each exactly [`CHUNK`] tuples, behind an `Arc`) plus one small mutable
//! tail. The shape buys two things at once:
//!
//! * **Cheap snapshots.** The tail holds each tuple behind its own `Arc`,
//!   so `Rows::clone()` bumps one `Arc` per sealed chunk and one per tail
//!   tuple (at most `CHUNK - 1`) and copies no tuple: a reader can capture
//!   a consistent view of a million-row relation in microseconds. This is
//!   what lets the service publish a point-in-time
//!   [`crate::instance::InstanceSnapshot`] at every batch boundary without
//!   slowing the writer down.
//! * **At most one tuple copy per append.** `push` wraps the tuple in a
//!   fresh `Arc`; sealing a full tail copies only the tuples a snapshot
//!   still holds. In-place row *replacement* (egd merges) swaps a tail
//!   tuple's `Arc`, or pays a one-chunk copy on a sealed chunk a snapshot
//!   actually shares.
//!
//! Whole-set rebuilds (dedup, substitution, core minimisation) re-chunk
//! from a `Vec<Tuple>`; those operations were already O(n).

use std::ops::Index;
use std::sync::Arc;

use crate::tuple::Tuple;

/// Tuples per sealed chunk. Small enough that a snapshot's per-tail-tuple
/// `Arc` bumps and a one-chunk copy-on-write stay cheap; large enough that
/// per-chunk `Arc` overhead disappears against tuple payloads.
pub const CHUNK: usize = 256;

/// A tuple sequence stored as sealed `Arc`'d chunks plus a mutable tail.
///
/// Cloning is the snapshot operation: sealed chunks and tail tuples are
/// shared by reference. Positional order is insertion order, matching the
/// `Vec<Tuple>` this type replaced — `RowId`s remain stable positions.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    /// Immutable full chunks (every one exactly `CHUNK` tuples long).
    sealed: Vec<Arc<Vec<Tuple>>>,
    /// The mutable tail (always shorter than `CHUNK`); snapshots share its
    /// tuples, never the vector.
    tail: Vec<Arc<Tuple>>,
}

impl Rows {
    /// An empty row set.
    pub fn new() -> Self {
        Rows::default()
    }

    /// Build from a plain vector, re-chunking it.
    pub fn from_vec(mut v: Vec<Tuple>) -> Self {
        let full = v.len() / CHUNK;
        let mut sealed = Vec::with_capacity(full);
        let tail = v
            .split_off(full * CHUNK)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut rest = v;
        for _ in 0..full {
            let remainder = rest.split_off(CHUNK);
            sealed.push(Arc::new(rest));
            rest = remainder;
        }
        debug_assert!(rest.is_empty());
        Rows { sealed, tail }
    }

    /// Flatten back into a plain vector. Chunks and tail tuples still
    /// shared with a snapshot are copied; uniquely-owned ones are moved.
    pub fn into_vec(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.sealed {
            match Arc::try_unwrap(chunk) {
                Ok(v) => out.extend(v),
                Err(shared) => out.extend(shared.iter().cloned()),
            }
        }
        out.extend(self.tail.into_iter().map(unshare));
        out
    }

    /// A deep copy of all tuples as a plain vector.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Tuple at position `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&Tuple> {
        let sealed_len = self.sealed.len() * CHUNK;
        if i < sealed_len {
            Some(&self.sealed[i / CHUNK][i % CHUNK])
        } else {
            self.tail.get(i - sealed_len).map(|t| &**t)
        }
    }

    /// Iterate tuples in positional order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter().map(|t| &**t))
    }

    /// Append a tuple; seals the tail into an immutable chunk when it
    /// reaches [`CHUNK`], copying only the tail tuples a snapshot still
    /// holds.
    pub fn push(&mut self, t: Tuple) {
        self.tail.push(Arc::new(t));
        if self.tail.len() == CHUNK {
            let full = std::mem::take(&mut self.tail);
            let full = full.into_iter().map(unshare).collect();
            self.sealed.push(Arc::new(full));
        }
    }

    /// Replace the tuple at position `i`. A sealed chunk shared with a
    /// snapshot is copied first (one chunk, not the whole set); a tail
    /// tuple's `Arc` is swapped. Either way the snapshot keeps the old row.
    pub fn set(&mut self, i: usize, t: Tuple) {
        let sealed_len = self.sealed.len() * CHUNK;
        if i < sealed_len {
            Arc::make_mut(&mut self.sealed[i / CHUNK])[i % CHUNK] = t;
        } else {
            self.tail[i - sealed_len] = Arc::new(t);
        }
    }

    /// Mutate tuples in place, copy-on-write per chunk: a sealed chunk is
    /// only cloned (and only once) when `hit` says some tuple in it will
    /// actually change, a shared tail tuple only when `hit` selects it.
    /// `apply` must leave tuples `hit` rejects unchanged. Returns the sum of
    /// `apply`'s returns — callers use it to count replaced values.
    pub fn for_each_mut_where(
        &mut self,
        hit: impl Fn(&Tuple) -> bool,
        mut apply: impl FnMut(&mut Tuple) -> usize,
    ) -> usize {
        let mut changed = 0;
        for chunk in &mut self.sealed {
            if chunk.iter().any(&hit) {
                for t in Arc::make_mut(chunk).iter_mut() {
                    changed += apply(t);
                }
            }
        }
        for t in &mut self.tail {
            if hit(t) {
                changed += apply(Arc::make_mut(t));
            }
        }
        changed
    }

    /// How many sealed chunks are currently shared with at least one
    /// snapshot — observability for tests pinning the cheap-clone claim.
    pub fn shared_chunks(&self) -> usize {
        self.sealed
            .iter()
            .filter(|c| Arc::strong_count(c) > 1)
            .count()
    }
}

/// Move a tuple out of its `Arc`, or copy it when a snapshot still holds it.
fn unshare(t: Arc<Tuple>) -> Tuple {
    Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone())
}

impl Index<usize> for Rows {
    type Output = Tuple;

    fn index(&self, i: usize) -> &Tuple {
        self.get(i).expect("row index out of bounds")
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

impl FromIterator<Tuple> for Rows {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Rows::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Tuple;
    type IntoIter = Box<dyn Iterator<Item = &'a Tuple> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    fn n_rows(n: usize) -> Rows {
        let mut r = Rows::new();
        for i in 0..n {
            r.push(tuple![i as i64]);
        }
        r
    }

    /// Tail tuples currently shared with at least one snapshot.
    fn shared_tail(r: &Rows) -> usize {
        r.tail.iter().filter(|t| Arc::strong_count(t) > 1).count()
    }

    #[test]
    fn push_get_iter_roundtrip_across_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let r = n_rows(n);
            assert_eq!(r.len(), n);
            assert_eq!(r.is_empty(), n == 0);
            for i in 0..n {
                assert_eq!(r.get(i), Some(&tuple![i as i64]), "n={n} i={i}");
                assert_eq!(&r[i], &tuple![i as i64]);
            }
            assert!(r.get(n).is_none());
            let collected: Vec<&Tuple> = r.iter().collect();
            assert_eq!(collected.len(), n);
            assert_eq!(r.to_vec(), r.clone().into_vec());
        }
    }

    #[test]
    fn from_vec_matches_pushes() {
        for n in [0, 5, CHUNK, 2 * CHUNK + 3] {
            let v: Vec<Tuple> = (0..n).map(|i| tuple![i as i64]).collect();
            assert_eq!(Rows::from_vec(v.clone()), n_rows(n));
            assert_eq!(Rows::from_vec(v.clone()).into_vec(), v);
        }
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let mut live = n_rows(2 * CHUNK + 10);
        let snap = live.clone();
        let before = snap.to_vec();
        // Appends, in-place replacement in a sealed chunk, and tail edits
        // must all be invisible to the snapshot.
        live.push(tuple![999i64]);
        live.set(3, tuple![-3i64]);
        live.set(2 * CHUNK + 5, tuple![-5i64]);
        assert_eq!(snap.to_vec(), before);
        assert_eq!(live.get(3), Some(&tuple![-3i64]));
        assert_eq!(live.get(2 * CHUNK + 5), Some(&tuple![-5i64]));
        assert_eq!(live.len(), before.len() + 1);
    }

    #[test]
    fn snapshot_shares_sealed_chunks_without_copying() {
        let live = n_rows(4 * CHUNK);
        assert_eq!(live.shared_chunks(), 0);
        let _snap = live.clone();
        assert_eq!(live.shared_chunks(), 4);
    }

    #[test]
    fn copy_on_write_touches_one_chunk() {
        let mut live = n_rows(4 * CHUNK);
        let _snap = live.clone();
        live.set(CHUNK + 1, tuple![0i64]);
        // Only the chunk containing the replaced row was copied.
        assert_eq!(live.shared_chunks(), 3);
    }

    #[test]
    fn for_each_mut_where_skips_untouched_shared_chunks() {
        let mut live = n_rows(3 * CHUNK);
        let _snap = live.clone();
        let target = Value::int((2 * CHUNK + 1) as i64);
        let changed = live.for_each_mut_where(
            |t| t.values()[0] == target,
            |t| {
                if t.values()[0] == target {
                    *t = tuple![-1i64];
                    1
                } else {
                    0
                }
            },
        );
        assert_eq!(changed, 1);
        // Chunks 0 and 1 stay shared; only chunk 2 was copied.
        assert_eq!(live.shared_chunks(), 2);
        assert_eq!(live.get(2 * CHUNK + 1), Some(&tuple![-1i64]));
    }

    #[test]
    fn snapshot_shares_tail_tuples_without_copying() {
        let live = n_rows(2 * CHUNK + 100);
        assert_eq!(shared_tail(&live), 0);
        let snap = live.clone();
        assert_eq!(shared_tail(&live), 100);
        assert_eq!(live.shared_chunks(), 2);
        drop(snap);
        assert_eq!(shared_tail(&live), 0);
    }

    #[test]
    fn seal_with_a_live_snapshot_keeps_the_snapshot() {
        let mut live = n_rows(CHUNK - 1);
        let snap = live.clone();
        live.push(tuple![-1i64]);
        assert!(live.tail.is_empty());
        assert_eq!(live.shared_chunks(), 0);
        assert_eq!(snap.to_vec(), n_rows(CHUNK - 1).to_vec());
        assert_eq!(live.get(CHUNK - 1), Some(&tuple![-1i64]));
    }

    #[test]
    fn set_on_shared_tail_leaves_snapshot_unchanged() {
        let mut live = n_rows(CHUNK + 10);
        let snap = live.clone();
        live.set(CHUNK + 4, tuple![-4i64]);
        assert_eq!(snap.to_vec(), n_rows(CHUNK + 10).to_vec());
        assert_eq!(live.get(CHUNK + 4), Some(&tuple![-4i64]));
        // Only the replaced tuple stopped being shared.
        assert_eq!(shared_tail(&live), 9);
    }

    #[test]
    fn for_each_mut_where_on_shared_tail_leaves_snapshot_unchanged() {
        let mut live = n_rows(CHUNK + 10);
        let snap = live.clone();
        let target = Value::int((CHUNK + 3) as i64);
        let changed = live.for_each_mut_where(
            |t| t.values()[0] == target,
            |t| {
                *t = tuple![-3i64];
                1
            },
        );
        assert_eq!(changed, 1);
        assert_eq!(snap.to_vec(), n_rows(CHUNK + 10).to_vec());
        assert_eq!(live.get(CHUNK + 3), Some(&tuple![-3i64]));
        // The sealed chunk had no hit and stays shared; of the tail, only
        // the selected tuple was copied.
        assert_eq!(live.shared_chunks(), 1);
        assert_eq!(shared_tail(&live), 9);
    }
}
