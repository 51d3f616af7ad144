//! Order statistics over measured samples.

/// A sorted sample set (microseconds, counts — any `f64`).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or count).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Median of a small set of values (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// Fewest samples a window of a [`Series`] holds.
const MIN_PER_WINDOW: usize = 400;
/// Most windows a [`Series`] is split into.
const MAX_WINDOWS: usize = 10;

/// Samples stamped with their offset into a measured span (s), so a
/// quantile can be taken per time window.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
    span_s: f64,
}

impl Series {
    /// An empty series over `span_s` seconds.
    pub fn new(span_s: f64) -> Self {
        Self { points: Vec::new(), span_s }
    }

    /// Adds `value` observed at offset `t_s`.
    pub fn push(&mut self, t_s: f64, value: f64) {
        self.points.push((t_s, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Appends `other`, which started `offset_s` into this series' span;
    /// the span grows by `other`'s.
    pub fn append(&mut self, other: Series, offset_s: f64) {
        self.points.extend(other.points.into_iter().map(|(t, v)| (t + offset_s, v)));
        self.span_s += other.span_s;
    }

    /// Quantile `q` as the median over equal time windows (at most
    /// ten, each of at least 400 samples) of the per-window quantile:
    /// a stall of the shared host then moves one window, not the
    /// figure.
    pub fn quantile(&self, q: f64) -> f64 {
        let windows = (self.points.len() / MIN_PER_WINDOW).clamp(1, MAX_WINDOWS);
        let width = self.span_s / windows as f64;
        let mut per = vec![Vec::new(); windows];
        for &(t, v) in &self.points {
            per[((t / width) as usize).min(windows - 1)].push(v);
        }
        let qs: Vec<f64> = per
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| Samples::new(w).quantile(q))
            .collect();
        median(&qs)
    }

    /// The median, windowed as in [`quantile`](Self::quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// All values as one sample set, ignoring the windows.
    pub fn pooled(&self) -> Samples {
        Samples::new(self.points.iter().map(|p| p.1).collect())
    }
}

/// Completions per second as the median over `windows` equal windows
/// of `span_s` seconds, given each completion's offset from the start:
/// a stall of the shared host costs one window, not the whole figure.
pub fn windowed_rate(done_s: &[f64], span_s: f64, windows: usize) -> f64 {
    let width = span_s / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1.0;
        }
    }
    median(&counts) / width
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn series_quantile_ignores_one_stalled_window() {
        let mut s = Series::new(4.0);
        for i in 0..1600 {
            let t = f64::from(i) / 400.0;
            // The third second stalls: every value there is 100×.
            s.push(t, if (2.0..3.0).contains(&t) { 1000.0 } else { 10.0 });
        }
        assert_eq!(s.len(), 1600);
        assert_eq!(s.median(), 10.0);
        assert_eq!(s.quantile(0.99), 10.0);
        assert_eq!(s.pooled().median(), 10.0);
        assert_eq!(s.pooled().quantile(0.99), 1000.0);
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        // 10 per second for 4 s, except nothing in the third second.
        let done: Vec<f64> =
            (0..40).map(|i| f64::from(i) / 10.0).filter(|t| !(2.0..3.0).contains(t)).collect();
        assert_eq!(windowed_rate(&done, 4.0, 4), 10.0);
    }
}
