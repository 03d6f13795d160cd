//! Small deterministic helpers: a seeded RNG, a stable content hash and
//! order statistics.

/// SplitMix64: a tiny seeded generator. The benchmark's inputs must be a
/// pure function of `--seed`, stable across toolchains, so it carries its
/// own generator instead of depending on a library's stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`, from 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// A derived, independent generator (for one input stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// FNV-1a, 64 bit: a stable hash for input and source fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One CPU's time from `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    /// User, nice, system, irq and softirq time.
    pub busy: u64,
    /// Idle and iowait time.
    pub idle: u64,
    /// Time the hypervisor ran someone else while this CPU had work.
    pub steal: u64,
}

impl Cpu {
    fn parse(fields: &str) -> Option<Cpu> {
        let ticks: Vec<u64> = fields
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal ...
        let tick = |i: usize| ticks.get(i).copied();
        Some(Cpu {
            busy: tick(0)? + tick(1)? + tick(2)? + tick(5)? + tick(6)?,
            idle: tick(3)? + tick(4)?,
            steal: tick(7)?,
        })
    }

    fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            busy: self.busy.saturating_sub(earlier.busy),
            idle: self.idle.saturating_sub(earlier.idle),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

/// Every CPU's time from `/proc/stat`.
#[derive(Clone, Debug)]
pub struct CpuTicks(Vec<Cpu>);

impl CpuTicks {
    /// The counters now, or `None` where `/proc/stat` cannot be read.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpus: Vec<Cpu> = stat
            .lines()
            .filter_map(|line| {
                let (name, fields) = line.split_once(' ')?;
                let index = name.strip_prefix("cpu")?;
                (!index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
                    .then(|| Cpu::parse(fields))?
            })
            .collect();
        (!cpus.is_empty()).then_some(CpuTicks(cpus))
    }

    /// Of all CPU time between `self` and `later`, the share stolen.
    pub fn steal_of_total(&self, later: &CpuTicks) -> f64 {
        let total = later.since(self).fold(Cpu::default(), |sum, cpu| Cpu {
            busy: sum.busy + cpu.busy,
            idle: sum.idle + cpu.idle,
            steal: sum.steal + cpu.steal,
        });
        total.steal as f64 / (total.busy + total.idle + total.steal).max(1) as f64
    }

    /// The share of its running time the work between `self` and `later`
    /// lost to the hypervisor: each CPU's steal over its busy and stolen
    /// time, weighted by the work that CPU did. A stall of an idle CPU
    /// delays nothing, while a stall of the CPU a serial thread runs on
    /// delays everything behind it.
    pub fn work_steal_share(&self, later: &CpuTicks) -> f64 {
        let (lost, busy) = later.since(self).fold((0.0, 0.0), |(lost, busy), cpu| {
            let share = cpu.steal as f64 / (cpu.busy + cpu.steal).max(1) as f64;
            (lost + cpu.busy as f64 * share, busy + cpu.busy as f64)
        });
        if busy > 0.0 {
            lost / busy
        } else {
            0.0
        }
    }

    fn since<'a>(&'a self, earlier: &'a CpuTicks) -> impl Iterator<Item = Cpu> + 'a {
        self.0
            .iter()
            .zip(&earlier.0)
            .map(|(now, then)| now.since(*then))
    }
}

/// Seconds as milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn unit_draws_are_uniform_in_the_unit_interval() {
        let mut r = Rng::new(3);
        let draws: Vec<f64> = (0..100_000).map(|_| r.unit()).collect();
        assert!(draws.iter().all(|&d| (0.0..1.0).contains(&d)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }

    #[test]
    fn steal_shares() {
        let cpu = |busy, idle, steal| Cpu { busy, idle, steal };
        let before = CpuTicks(vec![cpu(0, 0, 0), cpu(0, 0, 0)]);
        // CPU 0 mostly idle and much stolen; CPU 1 busy and hardly stolen.
        let after = CpuTicks(vec![cpu(10, 70, 20), cpu(90, 0, 10)]);
        assert_eq!(before.steal_of_total(&after), 0.15);
        let share = before.work_steal_share(&after);
        let expected = 0.1 * (20.0 / 30.0) + 0.9 * (10.0 / 100.0);
        assert!((share - expected).abs() < 1e-12, "{share}");
        assert_eq!(before.work_steal_share(&before), 0.0);
    }
}
