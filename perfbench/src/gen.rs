//! Seeded request and input generation. The benchmark seed decides
//! everything a run submits; the programs under test only ever see the
//! generated requests and inputs.

use diag_isa::prng::SplitMix64;

/// Mixes the benchmark seed with a stream label so independent streams
/// (connections, shuffles, input data) never share a sequence.
pub fn stream(seed: u64, label: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::seed_from_u64(mix.next_u64())
}

/// The input seed handed to workload builders (`Params::seed`).
pub fn input_seed(seed: u64) -> u64 {
    stream(seed, 0x1D).next_u64()
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Serve-hit key stream for connection `conn`: uniform draws, with
/// replacement, from `keys` keys.
pub struct HitStream {
    rng: SplitMix64,
    keys: usize,
}

impl HitStream {
    /// The stream connection `conn` draws from under `seed`.
    pub fn new(seed: u64, conn: u64, keys: usize) -> HitStream {
        assert!(keys > 0, "a hit stream needs at least one key");
        HitStream {
            rng: stream(seed, 0x4177 + conn),
            keys,
        }
    }

    /// The next key index.
    pub fn next_key(&mut self) -> usize {
        self.rng.gen_range(0..self.keys)
    }
}

/// Serve-miss order: every `(workload, machine)` pair of a
/// `workloads × machines` grid exactly once (drawn without
/// replacement), in rounds. Round `r` holds every workload once, each
/// on a machine from that workload's own seeded permutation, in a
/// seeded workload order. Any prefix of whole rounds therefore mixes the
/// workloads evenly, so a run cut short by its time budget measures the
/// same mix whatever the seed.
pub fn miss_order(seed: u64, workloads: usize, machines: usize) -> Vec<(usize, usize)> {
    let mut rng = stream(seed, 0x3155);
    let mut perms: Vec<Vec<usize>> = (0..workloads)
        .map(|_| {
            let mut p: Vec<usize> = (0..machines).collect();
            shuffle(&mut p, &mut rng);
            p
        })
        .collect();
    let mut order = Vec::with_capacity(workloads * machines);
    for _ in 0..machines {
        let mut ws: Vec<usize> = (0..workloads).collect();
        shuffle(&mut ws, &mut rng);
        for w in ws {
            if let Some(m) = perms[w].pop() {
                order.push((w, m));
            }
        }
    }
    order
}

/// `count` distinct indices below `n`, in seeded order (all of them
/// when `count >= n`).
pub fn sample(seed: u64, label: u64, n: usize, count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(&mut idx, &mut stream(seed, label));
    idx.truncate(count);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn miss_order_covers_every_pair_once() {
        let order = miss_order(7, 18, 38);
        assert_eq!(order.len(), 684);
        let distinct: HashSet<_> = order.iter().copied().collect();
        assert_eq!(distinct.len(), 684, "serve-miss must never repeat a key");
        assert!(order.iter().all(|&(w, m)| w < 18 && m < 38));
    }

    #[test]
    fn miss_order_rounds_mix_every_workload() {
        let order = miss_order(11, 18, 38);
        for round in order.chunks(18) {
            let ws: HashSet<usize> = round.iter().map(|&(w, _)| w).collect();
            assert_eq!(ws.len(), 18);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(miss_order(3, 18, 38), miss_order(3, 18, 38));
        assert_ne!(miss_order(3, 18, 38), miss_order(4, 18, 38));
        let draw = |seed, conn| {
            let mut s = HitStream::new(seed, conn, 54);
            (0..64).map(|_| s.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9, 0), draw(9, 0));
        assert_ne!(draw(9, 0), draw(9, 1), "connections draw distinct streams");
        assert_ne!(draw(9, 0), draw(10, 0));
        assert!(draw(9, 0).iter().all(|&k| k < 54));
        assert_eq!(input_seed(5), input_seed(5));
        assert_ne!(input_seed(5), input_seed(6));
        assert_eq!(sample(1, 2, 684, 24), sample(1, 2, 684, 24));
        let s: HashSet<usize> = sample(1, 2, 684, 24).into_iter().collect();
        assert_eq!(s.len(), 24);
    }
}
