//! Compact activity histograms: dense per-address counters and per-set
//! cache event counters.
//!
//! All counters saturate rather than wrap (like [`crate::span::Span`]):
//! tracing a pathological run clamps a counter at `u64::MAX` instead of
//! corrupting the report or panicking in the hot loop.

/// A dense histogram over a contiguous address range with a fixed stride
/// (4 for AR32 PCs and fetch words, 2 for FITS PCs).
///
/// The backing vector grows on demand, so the collector does not need to
/// know the text size up front; addresses below `base` or off-stride are
/// counted in a separate `stray` bucket rather than dropped silently.
#[derive(Clone, Debug)]
pub struct PcHistogram {
    base: u32,
    stride: u32,
    counts: Vec<u64>,
    stray: u64,
}

impl PcHistogram {
    /// An empty histogram over addresses `base + k * stride`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn new(base: u32, stride: u32) -> PcHistogram {
        assert!(stride > 0, "stride must be positive");
        PcHistogram {
            base,
            stride,
            counts: Vec::new(),
            stray: 0,
        }
    }

    /// The address stride between consecutive slots.
    #[must_use]
    pub fn stride(&self) -> u32 {
        self.stride
    }

    fn slot(&self, addr: u32) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let off = addr - self.base;
        if !off.is_multiple_of(self.stride) {
            return None;
        }
        Some((off / self.stride) as usize)
    }

    /// Counts one event at `addr` (saturating).
    pub fn record(&mut self, addr: u32) {
        self.add(addr, 1);
    }

    /// Counts `n` events at `addr` (saturating).
    pub fn add(&mut self, addr: u32, n: u64) {
        match self.slot(addr) {
            Some(i) => {
                if i >= self.counts.len() {
                    self.counts.resize(i + 1, 0);
                }
                self.counts[i] = self.counts[i].saturating_add(n);
            }
            None => self.stray = self.stray.saturating_add(n),
        }
    }

    /// The count at `addr` (0 when never recorded).
    #[must_use]
    pub fn get(&self, addr: u32) -> u64 {
        self.slot(addr)
            .and_then(|i| self.counts.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Events recorded at addresses outside the histogram's range/stride.
    #[must_use]
    pub fn stray(&self) -> u64 {
        self.stray
    }

    /// Sum of all in-range counts (saturating).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Iterates `(addr, count)` over the non-zero slots.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(move |(i, &c)| (self.base + (i as u32) * self.stride, c))
    }
}

/// Per-set cache event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetCounters {
    /// Accesses that hit in the set.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Words filled into the set by misses.
    pub fill_words: u64,
}

/// Per-set histogram of cache activity, mirroring one cache's geometry.
///
/// A miss implies a line fill of `line_bytes / 4` words, exactly as in the
/// simulator's cache model, so `fill_words` can be derived without a
/// dedicated fill event.
#[derive(Clone, Debug)]
pub struct SetHistogram {
    line_bytes: u32,
    sets: Vec<SetCounters>,
}

impl SetHistogram {
    /// A histogram for a cache with `sets` sets of `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (geometry is validated by the
    /// timing model before any event can fire).
    #[must_use]
    pub fn new(sets: u32, line_bytes: u32) -> SetHistogram {
        assert!(sets > 0 && line_bytes > 0, "degenerate cache geometry");
        SetHistogram {
            line_bytes,
            sets: vec![SetCounters::default(); sets as usize],
        }
    }

    /// The set index an address maps to.
    #[must_use]
    pub fn set_of(&self, addr: u32) -> usize {
        ((addr / self.line_bytes) as usize) % self.sets.len()
    }

    /// Records one access at `addr` (saturating); a miss also accounts the
    /// implied line fill.
    pub fn record(&mut self, addr: u32, hit: bool) {
        let fill = u64::from(self.line_bytes / 4);
        let idx = self.set_of(addr);
        let set = &mut self.sets[idx];
        if hit {
            set.hits = set.hits.saturating_add(1);
        } else {
            set.misses = set.misses.saturating_add(1);
            set.fill_words = set.fill_words.saturating_add(fill);
        }
    }

    /// The per-set counters, indexed by set.
    #[must_use]
    pub fn sets(&self) -> &[SetCounters] {
        &self.sets
    }

    /// Total accesses across all sets (saturating).
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.sets.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.hits).saturating_add(s.misses)
        })
    }

    /// The busiest set and its counters (by accesses), if any set was
    /// touched.
    #[must_use]
    pub fn hottest(&self) -> Option<(usize, SetCounters)> {
        self.sets
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.hits.saturating_add(s.misses))
            .filter(|(_, s)| s.hits > 0 || s.misses > 0)
            .map(|(i, s)| (i, *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_histogram_counts_and_iterates() {
        let mut h = PcHistogram::new(0x8000, 4);
        h.record(0x8000);
        h.record(0x8008);
        h.record(0x8008);
        assert_eq!(h.get(0x8000), 1);
        assert_eq!(h.get(0x8004), 0);
        assert_eq!(h.get(0x8008), 2);
        assert_eq!(h.total(), 3);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(0x8000, 1), (0x8008, 2)]);
    }

    #[test]
    fn pc_histogram_strays_do_not_vanish() {
        let mut h = PcHistogram::new(0x8000, 4);
        h.record(0x7ffc); // below base
        h.record(0x8002); // off stride
        assert_eq!(h.stray(), 2);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn pc_histogram_saturates() {
        let mut h = PcHistogram::new(0, 4);
        h.add(0, u64::MAX - 1);
        h.add(0, 5);
        assert_eq!(h.get(0), u64::MAX);
        h.add(8, u64::MAX);
        assert_eq!(h.total(), u64::MAX, "total saturates too");
    }

    #[test]
    fn set_histogram_maps_and_fills() {
        let mut h = SetHistogram::new(4, 32);
        h.record(0, false);
        h.record(32, true); // next line -> next set
        h.record(4 * 32, true); // wraps back to set 0
        assert_eq!(h.sets()[0].misses, 1);
        assert_eq!(h.sets()[0].hits, 1);
        assert_eq!(h.sets()[0].fill_words, 8);
        assert_eq!(h.sets()[1].hits, 1);
        assert_eq!(h.total_accesses(), 3);
        assert_eq!(h.hottest().unwrap().0, 0);
    }

    #[test]
    fn set_histogram_saturates() {
        let mut h = SetHistogram::new(1, 32);
        for _ in 0..3 {
            h.record(0, true);
        }
        h.sets[0].hits = u64::MAX;
        h.record(0, true);
        assert_eq!(h.sets()[0].hits, u64::MAX);
    }
}
