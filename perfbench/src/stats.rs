//! Order statistics and digests used by every workload.

/// Samples a percentile must leave above it before it is reported as
/// supported (the "highest percentile with at least ten samples beyond
/// it" rule).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for
/// an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Consecutive blocks a timed phase's latencies are split into. A
/// reported latency percentile is the median of the blocks'
/// percentiles, so a burst of contention from other work on the host
/// that falls inside one block does not move it.
pub const BLOCKS: usize = 3;

/// Median, over `blocks` consecutive blocks of `values` (in time order,
/// split into equal counts), of each block's nearest-rank percentile
/// `p`. `None` when there are fewer values than blocks.
pub fn blocked_percentile(values: &[f64], p: f64, blocks: usize) -> Option<f64> {
    let n = values.len();
    if blocks == 0 || n < blocks {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let mut block = values[b * n / blocks..(b + 1) * n / blocks].to_vec();
            block.sort_by(f64::total_cmp);
            nearest_rank(&block, p)
        })
        .collect();
    median(&per_block)
}

/// Median, over `blocks` equal stretches of `span` seconds, of the
/// events per second in each stretch; `times` are event times in
/// seconds from the start of the span. `None` for an empty span.
pub fn blocked_rate(times: &[f64], span: f64, blocks: usize) -> Option<f64> {
    if blocks == 0 || span <= 0.0 {
        return None;
    }
    let width = span / blocks as f64;
    let mut counts = vec![0usize; blocks];
    for &t in times {
        counts[((t / width) as usize).min(blocks - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// `-log2(err)`, capped at the f64 mantissa width so exact agreement
/// reads as 52 bits rather than infinity.
pub fn precision_bits(max_err: f64) -> f64 {
    -max_err.max(f64::EPSILON).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 90.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        // 100 samples: rank 90, ten samples beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        // 99 samples: rank 90 (ceil 89.1), nine beyond.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn blocked_percentile_ignores_a_burst_in_one_block() {
        // Time order: a quiet block, a slow burst, a quiet block.
        let v: Vec<f64> = (1..=10)
            .chain(101..=110)
            .chain(11..=20)
            .map(f64::from)
            .collect();
        // Block p90s are 9, 109 and 19; the pooled p90 is 107.
        assert_eq!(blocked_percentile(&v, 90.0, 3), Some(19.0));
        assert_eq!(blocked_percentile(&v, 50.0, 3), Some(15.0));
        assert_eq!(blocked_percentile(&v, 90.0, 1), Some(107.0));
        assert_eq!(blocked_percentile(&[1.0, 2.0], 50.0, 3), None);
    }

    #[test]
    fn blocked_rate_ignores_a_slow_block() {
        // 10 s: 20 events in each of the first and last thirds, 5 in the
        // middle one.
        let third = 10.0 / 3.0;
        let times: Vec<f64> = (0..20)
            .map(|i| f64::from(i) * third / 20.0)
            .chain((0..5).map(|i| third + f64::from(i) * third / 5.0))
            .chain((0..20).map(|i| 2.0 * third + f64::from(i) * third / 20.0))
            .collect();
        assert_eq!(blocked_rate(&times, 10.0, 3), Some(20.0 / third));
        assert_eq!(blocked_rate(&times, 10.0, 1), Some(4.5));
        assert_eq!(blocked_rate(&[], 0.0, 3), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn precision_is_capped_for_exact_agreement() {
        assert_eq!(precision_bits(0.0), 52.0);
        assert!((precision_bits(0.25) - 2.0).abs() < 1e-12);
    }
}
