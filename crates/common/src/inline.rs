//! [`InlineVec`]: a vector whose first `N` elements live in place.
//!
//! The per-transaction paths (a transaction's parameters, its scratchpad,
//! the executors it involved, one phase's dispatch) hold a handful of
//! elements almost every time. Keeping those in the owning value instead of
//! in a heap buffer makes them free to build; a rare large instance (a
//! TPC-C StockLevel's few hundred items) spills the elements past `N` into a
//! `Vec` and still works.

/// A vector storing its first `N` elements inline and the rest in a `Vec`
/// that is allocated only when the `N + 1`-th element arrives.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    /// Elements `0..min(len, N)` are `Some`; the rest are `None`.
    inline: [Option<T>; N],
    /// Elements `N..len`.
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    pub const fn new() -> Self {
        Self {
            inline: [const { None }; N],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(value),
            None => self.spill.push(value),
        }
        self.len += 1;
    }

    /// Inserts `value` at `index` (at the end if `index` is past it),
    /// shifting the elements after it up by one.
    pub fn insert(&mut self, index: usize, value: T) {
        let index = index.min(self.len);
        if index >= N {
            self.spill.insert(index - N, value);
        } else {
            // The last inline element, if the inline part is full, moves to
            // the front of the spill; its slot is then the free one that the
            // rotation brings down to `index`.
            if let Some(last) = self.inline[N - 1].take() {
                self.spill.insert(0, last);
            }
            self.inline[index..].rotate_right(1);
            self.inline[index] = Some(value);
        }
        self.len += 1;
    }

    /// Binary search over elements sorted by `compare` (which orders an
    /// element against the target): `Ok` with the index of a match, or `Err`
    /// with the index where the target would be inserted to keep the order.
    pub fn binary_search_by(
        &self,
        mut compare: impl FnMut(&T) -> std::cmp::Ordering,
    ) -> Result<usize, usize> {
        let (mut low, mut high) = (0, self.len);
        while low < high {
            let mid = low + (high - low) / 2;
            match self.get(mid).map(&mut compare) {
                Some(std::cmp::Ordering::Less) => low = mid + 1,
                Some(std::cmp::Ordering::Equal) => return Ok(mid),
                _ => high = mid,
            }
        }
        Err(low)
    }

    /// The element at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.inline.get(index) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(index - N),
        }
    }

    /// The element at `index`, mutably, if any.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        match self.inline.get_mut(index) {
            Some(slot) => slot.as_mut(),
            None => self.spill.get_mut(index - N),
        }
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(self.spill.iter())
    }

    /// Keeps only the elements `keep` accepts, in order. Allocates only if
    /// more than `N` are kept.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = Self::new();
        for value in std::mem::take(self) {
            if keep(&value) {
                kept.push(value);
            }
        }
        *self = kept;
    }

    /// Sorts the elements by `key`, keeping the order of equal keys.
    pub fn sort_by_key<K: Ord>(&mut self, mut key: impl FnMut(&T) -> K) {
        if self.spill.is_empty() {
            // The occupied slots are the first `len`, every one `Some`.
            self.inline[..self.len].sort_by_key(|slot| slot.as_ref().map(&mut key));
            return;
        }
        let mut all: Vec<T> = std::mem::take(self).into_iter().collect();
        all.sort_by_key(key);
        self.extend(all);
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        values.into_iter().for_each(|value| self.push(value));
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut vec = Self::new();
        vec.extend(values);
        vec
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, N>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_order_across_the_inline_boundary() {
        let mut vec: InlineVec<u32, 3> = InlineVec::new();
        let mut model = Vec::new();
        // Inserts at the front, the middle, the boundary and the end, into
        // a vector that is first partly inline, then spilled.
        for (step, value) in (0..40u32).enumerate() {
            let index = match step % 4 {
                0 => 0,
                1 => model.len() / 2,
                2 => 3.min(model.len()),
                _ => model.len() + 5,
            };
            vec.insert(index, value);
            model.insert(index.min(model.len()), value);
            assert!(
                vec.iter().eq(model.iter()),
                "after inserting {value} at {index}"
            );
        }
        let sorted: InlineVec<u32, 3> = (0..50).map(|n| n * 2).collect();
        assert_eq!(sorted.binary_search_by(|n| n.cmp(&0)), Ok(0));
        assert_eq!(sorted.binary_search_by(|n| n.cmp(&98)), Ok(49));
        assert_eq!(sorted.binary_search_by(|n| n.cmp(&7)), Err(4));
        assert_eq!(sorted.binary_search_by(|n| n.cmp(&99)), Err(50));
        assert_eq!(
            InlineVec::<u32, 3>::new().binary_search_by(|n| n.cmp(&1)),
            Err(0)
        );
    }

    #[test]
    fn elements_past_the_inline_capacity_spill_in_order() {
        let mut vec: InlineVec<String, 2> = InlineVec::new();
        for word in ["a", "b", "c", "d"] {
            vec.push(word.to_string());
        }
        assert_eq!(vec.len(), 4);
        assert_eq!(vec.get(1).map(String::as_str), Some("b"));
        assert_eq!(vec.get(3).map(String::as_str), Some("d"));
        assert_eq!(vec.get(4), None);
        let words: Vec<_> = vec.iter().map(String::as_str).collect();
        assert_eq!(words, ["a", "b", "c", "d"]);
        *vec.get_mut(2).unwrap() = "x".into();
        let owned: Vec<String> = vec.into_iter().collect();
        assert_eq!(owned, ["a", "b", "x", "d"]);
    }

    #[test]
    fn sorting_is_stable_inline_and_spilled() {
        for n in [3usize, 9] {
            let mut vec: InlineVec<(u8, usize), 4> = InlineVec::new();
            for i in 0..n {
                vec.push(((i % 2) as u8, i));
            }
            vec.sort_by_key(|(k, _)| *k);
            let sorted: Vec<_> = vec.iter().copied().collect();
            let mut expected: Vec<_> = (0..n).map(|i| ((i % 2) as u8, i)).collect();
            expected.sort_by_key(|(k, _)| *k);
            assert_eq!(sorted, expected);
            assert_eq!(vec.len(), n);
        }
    }

    #[test]
    fn retain_keeps_order_inline_and_spilled() {
        for n in [2u32, 9] {
            let mut vec: InlineVec<u32, 3> = (0..n).collect();
            vec.retain(|v| v % 2 == 1);
            let odd: Vec<_> = vec.iter().copied().collect();
            assert_eq!(odd, (0..n).filter(|v| v % 2 == 1).collect::<Vec<_>>());
            assert_eq!(vec.len(), odd.len());
        }
    }

    #[test]
    fn an_empty_vector_allocates_nothing_and_collects() {
        let vec: InlineVec<u32, 1> = InlineVec::new();
        assert!(vec.is_empty());
        assert_eq!(vec.spill.capacity(), 0);
        let vec: InlineVec<u32, 1> = (0..5).collect();
        assert_eq!(vec.len(), 5);
        assert_eq!(vec.get(0), Some(&0));
        assert_eq!(vec.get(4), Some(&4));
    }
}
