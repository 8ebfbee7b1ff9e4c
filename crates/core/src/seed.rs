//! Seed derivation for the engine's draw streams.

/// SplitMix64 finalizer: decorrelates batch and shard indices from a
/// base seed. `irs-engine` derives its per-batch and per-shard draw
/// seeds with it — the one derivation every layer above replays (see
/// `DESIGN.md`, "Determinism").
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_decorrelates_consecutive_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a ^ b, 3, "outputs must not preserve input deltas");
        assert_eq!(splitmix64(1), a, "pure function");
    }
}
