//! The seeded arrival sequence: which query each client sends next, and
//! the deadline that query carries.
//!
//! Queries are an equal mix of TPC-H q1, q3 and q6, and each arrival is
//! tight or loose with equal odds. Arrivals come in blocks of six: every
//! block is a seeded shuffle of all six (query, deadline class) pairs. So
//! the order and the draws depend on the seed, while the mix stays exactly
//! balanced at every block boundary and a run's figures do not swing with
//! how the coin happened to fall.

/// SplitMix64: a tiny, well-mixed generator that needs no dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-58 for the
    /// tiny `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One of the three benchmark queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Q1,
    Q3,
    Q6,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Q1, Kind::Q3, Kind::Q6];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q3 => "q3",
            Kind::Q6 => "q6",
        }
    }

    /// The SQL text, as in `benchmarks/sql/` when this benchmark was made.
    /// The benchmark keeps its own copy, so editing the engine's query
    /// files cannot change what is measured.
    pub fn sql(self) -> &'static str {
        match self {
            Kind::Q1 => include_str!("../sql/q1.sql"),
            Kind::Q3 => include_str!("../sql/q3.sql"),
            Kind::Q6 => include_str!("../sql/q6.sql"),
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Deadline in milliseconds, calibrated once on a 2-vCPU box at sf 0.1
    /// with the query running alone on a 2-slot in-process executor,
    /// elasticity `off`. Medians of two rounds of 41 runs: q1 80 and 85 ms
    /// at DOP 1, 48 and 51 ms at DOP 2; q3 323 and 324 ms, 213 and 195 ms;
    /// q6 13.7 and 12.9 ms, 9.6 and 8.2 ms. Tight lies between DOP 2 and
    /// DOP 1, so DOP 1 misses it and DOP 2 meets it; loose is at least three
    /// times the DOP-1 latency.
    pub fn deadline_ms(self, class: Class) -> u64 {
        match (self, class) {
            (Kind::Q1, Class::Tight) => 65,
            (Kind::Q1, Class::Loose) => 260,
            (Kind::Q3, Class::Tight) => 250,
            (Kind::Q3, Class::Loose) => 1_000,
            (Kind::Q6, Class::Tight) => 11,
            (Kind::Q6, Class::Loose) => 45,
        }
    }
}

/// Deadline class of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Tight,
    Loose,
}

/// One query a client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub kind: Kind,
    pub class: Class,
}

impl Arrival {
    pub fn deadline_ms(&self) -> u64 {
        self.kind.deadline_ms(self.class)
    }
}

/// An endless, seeded stream of arrivals for one client.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: SplitMix64,
    block: Vec<Arrival>,
}

impl Arrivals {
    /// Client `client`'s stream under workload seed `seed`; every client
    /// of a run draws its own stream.
    pub fn new(seed: u64, client: u32) -> Self {
        let mut mix = SplitMix64::new(seed ^ (u64::from(client) << 32));
        Arrivals {
            rng: SplitMix64::new(mix.next_u64()),
            block: Vec::new(),
        }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.block.is_empty() {
            for kind in Kind::ALL {
                for class in [Class::Tight, Class::Loose] {
                    self.block.push(Arrival { kind, class });
                }
            }
            // Fisher–Yates; arrivals are then popped from the back.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: u32, n: usize) -> Vec<Arrival> {
        Arrivals::new(seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_gives_the_same_queries_and_deadlines() {
        let a = take(7, 0, 120);
        assert_eq!(a, take(7, 0, 120));
        let deadlines: Vec<u64> = a.iter().map(Arrival::deadline_ms).collect();
        let again: Vec<u64> = take(7, 0, 120).iter().map(Arrival::deadline_ms).collect();
        assert_eq!(deadlines, again);
    }

    #[test]
    fn another_seed_or_client_gives_another_sequence() {
        assert_ne!(take(7, 0, 60), take(8, 0, 60));
        assert_ne!(take(7, 0, 60), take(7, 1, 60));
        let deadlines =
            |s| -> Vec<u64> { take(s, 0, 60).iter().map(Arrival::deadline_ms).collect() };
        assert_ne!(deadlines(7), deadlines(8));
    }

    #[test]
    fn every_block_of_six_holds_each_query_and_class_once() {
        let a = take(123, 0, 600);
        for block in a.chunks(6) {
            for kind in Kind::ALL {
                for class in [Class::Tight, Class::Loose] {
                    let n = block
                        .iter()
                        .filter(|x| x.kind == kind && x.class == class)
                        .count();
                    assert_eq!(n, 1, "{block:?}");
                }
            }
        }
    }

    #[test]
    fn tight_deadlines_are_below_loose_ones() {
        for kind in Kind::ALL {
            assert!(kind.deadline_ms(Class::Tight) * 3 < kind.deadline_ms(Class::Loose));
        }
    }
}
