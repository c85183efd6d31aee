//! The Boyer–Moore majority-vote algorithm (1981).
//!
//! Finds the majority element of a sequence — if one exists — using a single
//! candidate and a single counter: matching items increment, mismatches
//! decrement, and a zero counter adopts the next item as candidate. The
//! survey cites it as the seed from which Misra–Gries generalized to all
//! frequent items.

use sketches_core::{Clear, MergeSketch, SketchResult, SpaceUsage, Update};

/// The Boyer–Moore majority-vote state: one candidate, one counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoyerMoore<T> {
    candidate: Option<T>,
    count: u64,
    items_seen: u64,
}

impl<T: Eq + Clone> BoyerMoore<T> {
    /// Creates an empty majority tracker.
    #[must_use]
    pub fn new() -> Self {
        Self {
            candidate: None,
            count: 0,
            items_seen: 0,
        }
    }

    /// The current candidate. If the stream has a strict majority element,
    /// this *is* it; otherwise the candidate is arbitrary and a second
    /// verification pass is required.
    #[must_use]
    pub fn candidate(&self) -> Option<&T> {
        self.candidate.as_ref()
    }

    /// Number of items absorbed.
    #[must_use]
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// The surplus vote count for the candidate.
    #[must_use]
    pub fn surplus(&self) -> u64 {
        self.count
    }
}

impl<T: Eq + Clone> Update<T> for BoyerMoore<T> {
    fn update(&mut self, item: &T) {
        self.items_seen += 1;
        match &self.candidate {
            Some(c) if c == item => self.count += 1,
            _ if self.count == 0 => {
                self.candidate = Some(item.clone());
                self.count = 1;
            }
            _ => self.count -= 1,
        }
    }
}

impl<T> Clear for BoyerMoore<T> {
    fn clear(&mut self) {
        self.candidate = None;
        self.count = 0;
        self.items_seen = 0;
    }
}

impl<T> SpaceUsage for BoyerMoore<T> {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl<T: Eq + Clone> MergeSketch for BoyerMoore<T> {
    /// Merges two majority states by cancelling opposing surpluses — the
    /// same weighted vote the streaming algorithm performs.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.items_seen += other.items_seen;
        match (&self.candidate, &other.candidate) {
            (Some(a), Some(b)) if a == b => self.count += other.count,
            (_, Some(b)) => {
                if other.count > self.count {
                    self.candidate = Some(b.clone());
                    self.count = other.count - self.count;
                } else {
                    self.count -= other.count;
                    if self.count == 0 {
                        self.candidate = None;
                    }
                }
            }
            (_, None) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_strict_majority() {
        let mut bm = BoyerMoore::new();
        let stream = [1, 2, 1, 3, 1, 1, 2, 1];
        for x in &stream {
            bm.update(x);
        }
        assert_eq!(bm.candidate(), Some(&1));
        assert_eq!(bm.items_seen(), 8);
    }

    #[test]
    fn majority_at_exactly_half_plus_one() {
        let mut bm = BoyerMoore::new();
        for _ in 0..51 {
            bm.update(&"a");
        }
        for i in 0..50 {
            let s: &str = format!("x{i}").leak();
            bm.update(&s);
        }
        assert_eq!(bm.candidate(), Some(&"a"));
    }

    #[test]
    fn adversarial_order_still_finds_majority() {
        // Alternate minority/majority to exercise the cancel logic.
        let mut bm = BoyerMoore::new();
        for i in 0..100u32 {
            bm.update(&i); // 100 distinct minorities
            bm.update(&u32::MAX);
            bm.update(&u32::MAX); // 200 majority votes
        }
        assert_eq!(bm.candidate(), Some(&u32::MAX));
    }

    #[test]
    fn merge_agrees_with_single_stream() {
        let stream: Vec<u32> = (0..300)
            .map(|i| if i % 3 == 0 { 7 } else { i })
            .chain(std::iter::repeat_n(7, 200))
            .collect();
        let mut whole = BoyerMoore::new();
        for x in &stream {
            whole.update(x);
        }
        let mut left = BoyerMoore::new();
        let mut right = BoyerMoore::new();
        for x in &stream[..250] {
            left.update(x);
        }
        for x in &stream[250..] {
            right.update(x);
        }
        left.merge(&right).unwrap();
        // 7 appears 100 + 200 = 300 of 500 items: a strict majority, so both
        // must report it.
        assert_eq!(whole.candidate(), Some(&7));
        assert_eq!(left.candidate(), Some(&7));
        assert_eq!(left.items_seen(), 500);
    }

    #[test]
    fn clear_resets() {
        let mut bm = BoyerMoore::new();
        bm.update(&5);
        bm.clear();
        assert_eq!(bm.candidate(), None);
        assert_eq!(bm.items_seen(), 0);
    }

    #[test]
    fn empty_merge_is_noop() {
        let mut a: BoyerMoore<u32> = BoyerMoore::new();
        a.update(&1);
        let b = BoyerMoore::new();
        a.merge(&b).unwrap();
        assert_eq!(a.candidate(), Some(&1));
    }
}
