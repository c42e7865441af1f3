//! The physical-world / virtual-world correlation model (parameter
//! `delta`, after Nguyen, Safaei & Boustead [19] as used in the paper).
//!
//! "The higher the value of delta is, the stronger the tendency for
//! clients from the close geographic locations to gather in specific zones
//! of the virtual world." We realise this by giving every geographic
//! region (AS domain of the topology) a preferred block of zones: with
//! probability `delta` a client picks a zone from its region's preferred
//! block, and with probability `1 - delta` it picks from the whole zone
//! set. Both picks respect the zone population weights (hot zones), so
//! correlation composes with virtual-world clustering.

use crate::distribution::WeightedIndex;
use rand::Rng;

/// Maps geographic regions to preferred zone blocks and samples zones
/// according to the `delta`-mixture.
#[derive(Debug, Clone)]
pub struct CorrelationModel {
    zones: usize,
    regions: usize,
    delta: f64,
    /// Preferred zones per region (contiguous blocks, round-robin padded).
    preferred: Vec<Vec<usize>>,
}

impl CorrelationModel {
    /// Builds the model. `delta` must be in [0, 1]; `zones` and `regions`
    /// must be positive.
    pub fn new(zones: usize, regions: usize, delta: f64) -> Self {
        assert!(zones > 0, "need at least one zone");
        assert!(regions > 0, "need at least one region");
        assert!((0.0..=1.0).contains(&delta), "delta {delta} outside [0,1]");
        // Contiguous block partition: region r prefers zones
        // [r*B, (r+1)*B) where B = ceil(zones / regions); the last blocks
        // wrap so every region has at least one preferred zone.
        let block = zones.div_ceil(regions);
        let preferred = (0..regions)
            .map(|r| {
                let start = (r * block) % zones;
                (0..block).map(|k| (start + k) % zones).collect()
            })
            .collect();
        CorrelationModel {
            zones,
            regions,
            delta,
            preferred,
        }
    }

    /// Number of zones covered.
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// The correlation parameter.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Preferred zone block of `region`.
    pub fn preferred_zones(&self, region: usize) -> &[usize] {
        &self.preferred[region % self.regions]
    }

    /// One [`WeightedIndex`] per region over its preferred block, drawn
    /// with the zones' raw weights (hot zones included). Built once per
    /// world and passed to [`sample_zone_weighted`](Self::sample_zone_weighted)
    /// by region.
    pub fn block_tables(&self, raw_weights: &[f64]) -> Vec<WeightedIndex> {
        assert_eq!(raw_weights.len(), self.zones);
        self.preferred
            .iter()
            .map(|block| {
                let weights: Vec<f64> = block.iter().map(|&z| raw_weights[z]).collect();
                WeightedIndex::new(&weights)
            })
            .collect()
    }

    /// Samples a zone (hot-zone aware in both branches): with probability
    /// `delta` the pick is drawn from `block_table`, `region`'s entry of
    /// [`block_tables`](Self::block_tables), otherwise from the full
    /// weighted table.
    pub fn sample_zone_weighted<R: Rng + ?Sized>(
        &self,
        region: usize,
        block_table: &WeightedIndex,
        full_table: &WeightedIndex,
        rng: &mut R,
    ) -> usize {
        let block = self.preferred_zones(region);
        debug_assert_eq!(block_table.len(), block.len());
        if rng.gen::<f64>() < self.delta {
            block[block_table.sample(rng)]
        } else {
            full_table.sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blocks_cover_all_regions() {
        let m = CorrelationModel::new(80, 20, 0.5);
        for r in 0..20 {
            let block = m.preferred_zones(r);
            assert_eq!(block.len(), 4); // 80 / 20
            for &z in block {
                assert!(z < 80);
            }
        }
    }

    #[test]
    fn more_regions_than_zones_wraps() {
        let m = CorrelationModel::new(3, 7, 0.5);
        for r in 0..7 {
            assert!(!m.preferred_zones(r).is_empty());
            for &z in m.preferred_zones(r) {
                assert!(z < 3);
            }
        }
    }

    #[test]
    fn delta_one_always_prefers_home_block() {
        let m = CorrelationModel::new(80, 20, 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let weights = vec![1.0; 80];
        let table = WeightedIndex::new(&weights);
        let blocks = m.block_tables(&weights);
        for _ in 0..500 {
            let z = m.sample_zone_weighted(3, &blocks[3], &table, &mut rng);
            assert!(m.preferred_zones(3).contains(&z));
        }
    }

    #[test]
    fn delta_zero_spreads_over_all_zones() {
        let m = CorrelationModel::new(10, 2, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let weights = vec![1.0; 10];
        let table = WeightedIndex::new(&weights);
        let blocks = m.block_tables(&weights);
        let mut seen = [false; 10];
        for _ in 0..2000 {
            seen[m.sample_zone_weighted(0, &blocks[0], &table, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all zones should be hit");
    }

    #[test]
    fn weighted_sampling_respects_hot_zones_in_block() {
        // Region 0 prefers zones 0..4; make zone 2 hot.
        let m = CorrelationModel::new(8, 2, 1.0);
        let mut weights = vec![1.0; 8];
        weights[2] = 50.0;
        let table = WeightedIndex::new(&weights);
        let blocks = m.block_tables(&weights);
        let mut rng = StdRng::seed_from_u64(8);
        let mut hits2 = 0;
        let n = 4000;
        for _ in 0..n {
            if m.sample_zone_weighted(0, &blocks[0], &table, &mut rng) == 2 {
                hits2 += 1;
            }
        }
        assert!(
            hits2 as f64 / n as f64 > 0.8,
            "hot zone share {}",
            hits2 as f64 / n as f64
        );
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_delta() {
        CorrelationModel::new(10, 2, 1.5);
    }
}
