//! Fenwick (binary indexed) tree over symbol frequencies.
//!
//! The adaptive range coder needs three operations fast over alphabets as
//! large as SZ's quantization-code space (2^16): point update, prefix sum,
//! and *inverse* prefix sum (find the symbol owning a cumulative count).
//! All three are `O(log n)` here.

/// A Fenwick tree of `u32` frequencies.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u32>,
    len: usize,
}

impl Fenwick {
    /// A tree of `len` zero frequencies.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "empty Fenwick tree");
        Fenwick {
            tree: vec![0u32; len + 1],
            len,
        }
    }

    /// A tree with every frequency set to `init` (the classic "all symbols
    /// start plausible" adaptive-model initialisation).
    pub fn with_uniform(len: usize, init: u32) -> Self {
        let mut f = Fenwick::new(len);
        for i in 0..len {
            f.add(i, init);
        }
        f
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree tracks no symbols (never for valid trees).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `delta` to symbol `i`'s frequency.
    pub fn add(&mut self, i: usize, delta: u32) {
        let mut i = i + 1;
        while i <= self.len {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of frequencies of symbols `0..i` (exclusive prefix sum).
    pub fn prefix(&self, i: usize) -> u32 {
        let mut i = i.min(self.len);
        let mut s = 0u32;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Total frequency mass.
    pub fn total(&self) -> u32 {
        self.prefix(self.len)
    }

    /// Frequency of symbol `i`.
    pub fn get(&self, i: usize) -> u32 {
        self.prefix(i + 1) - self.prefix(i)
    }

    /// Find the symbol whose cumulative interval contains `target`, i.e.
    /// the largest `s` with `prefix(s) <= target`. `target` must be below
    /// [`Fenwick::total`].
    pub fn find(&self, mut target: u32) -> usize {
        debug_assert!(target < self.total());
        let mut pos = 0usize;
        let mut mask = self.len.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= self.len && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        pos
    }

    /// Halve every frequency, keeping each at least 1 — the periodic aging
    /// step that lets the adaptive model track non-stationary sources.
    pub fn halve(&mut self) {
        let freqs: Vec<u32> = (0..self.len).map(|i| self.get(i)).collect();
        self.tree.iter_mut().for_each(|v| *v = 0);
        for (i, f) in freqs.into_iter().enumerate() {
            self.add(i, (f / 2).max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_match_naive() {
        let freqs = [3u32, 0, 7, 1, 4, 4, 0, 2, 9];
        let mut f = Fenwick::new(freqs.len());
        for (i, &v) in freqs.iter().enumerate() {
            f.add(i, v);
        }
        let mut acc = 0u32;
        for i in 0..=freqs.len() {
            assert_eq!(f.prefix(i), acc, "prefix({i})");
            if i < freqs.len() {
                acc += freqs[i];
            }
        }
        assert_eq!(f.total(), 30);
    }

    #[test]
    fn get_recovers_frequencies() {
        let mut f = Fenwick::new(5);
        f.add(0, 2);
        f.add(3, 9);
        assert_eq!(f.get(0), 2);
        assert_eq!(f.get(1), 0);
        assert_eq!(f.get(3), 9);
    }

    #[test]
    fn find_inverts_prefix() {
        let freqs = [2u32, 5, 1, 0, 3];
        let mut f = Fenwick::new(freqs.len());
        for (i, &v) in freqs.iter().enumerate() {
            f.add(i, v);
        }
        // Targets 0,1 → sym 0; 2..6 → sym 1; 7 → sym 2; 8..10 → sym 4.
        let expect = [0, 0, 1, 1, 1, 1, 1, 2, 4, 4, 4];
        for (t, &e) in expect.iter().enumerate() {
            assert_eq!(f.find(t as u32), e, "target {t}");
        }
    }

    #[test]
    fn find_works_on_non_power_of_two_lengths() {
        for len in [1usize, 3, 5, 6, 7, 100, 1000] {
            let mut f = Fenwick::with_uniform(len, 1);
            for t in 0..len as u32 {
                assert_eq!(f.find(t), t as usize, "len {len}");
            }
            // After a skewed update the mapping shifts consistently.
            f.add(0, 10);
            assert_eq!(f.find(0), 0);
            assert_eq!(f.find(10), 0);
            if len > 1 {
                assert_eq!(f.find(11), 1);
            }
        }
    }

    #[test]
    fn halve_ages_but_keeps_support() {
        let mut f = Fenwick::new(4);
        f.add(0, 100);
        f.add(1, 1);
        f.halve();
        assert_eq!(f.get(0), 50);
        assert_eq!(f.get(1), 1, "aged frequency must stay >= 1");
        assert_eq!(
            f.get(2),
            1,
            "zero frequencies become 1 to keep coding possible"
        );
    }

    #[test]
    fn uniform_initialisation() {
        let f = Fenwick::with_uniform(10, 3);
        assert_eq!(f.total(), 30);
        assert_eq!(f.get(7), 3);
    }
}
