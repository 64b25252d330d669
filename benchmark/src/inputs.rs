//! Everything a workload feeds the crates under test, made from `--seed`
//! and nothing else: the generated documents, the choice of seed nodes and
//! the cold-query corpus.  The same seed gives the same inputs.

use crate::api::{Family, Size};

/// SplitMix64: the ledger's own generator, so input choice does not depend
/// on the generator the crates under test ship.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Derive an independent seed for one named input from the run's seed.
pub fn derive(seed: u64, salt: &str) -> u64 {
    let mut rng = Rng::new(seed);
    for byte in salt.bytes() {
        rng.0 ^= u64::from(byte);
        rng.next();
    }
    rng.next()
}

/// One generated document, ready to load.
#[derive(Debug, Clone)]
pub struct Doc {
    pub uri: String,
    pub family: Family,
    pub xml: String,
}

impl Doc {
    /// Generate `family` at `size` under `uri`; the generator's `seed`
    /// field is derived from the run's seed and the URI.
    pub fn generate(family: Family, size: Size, uri: &str, seed: u64) -> Doc {
        Doc {
            uri: uri.to_string(),
            family,
            xml: family.generate(size, derive(seed, uri)),
        }
    }

    pub fn id_attributes(&self) -> &'static [&'static str] {
        self.family.id_attributes()
    }
}

pub const CURRICULUM: &str = "curriculum.xml";
pub const AUCTION: &str = "auction.xml";
pub const HOSPITAL: &str = "hospital.xml";
pub const PLAY: &str = "play.xml";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Doc::generate(Family::Curriculum, Size::Small, CURRICULUM, 7);
        let b = Doc::generate(Family::Curriculum, Size::Small, CURRICULUM, 7);
        let c = Doc::generate(Family::Curriculum, Size::Small, CURRICULUM, 8);
        assert_eq!(a.xml, b.xml);
        assert_ne!(a.xml, c.xml);
        assert_ne!(derive(7, CURRICULUM), derive(7, AUCTION));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
