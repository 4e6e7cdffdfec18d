//! Seeded arrival schedules. Everything an arrival carries — when it is due
//! and the seed its inputs are drawn from — is a pure function of
//! `(run seed, phase, arrival index)`, so arrival *i* is the same
//! transaction whichever client thread claims it and however fast the
//! system under test happens to be.

/// splitmix64: the generator for due times and per-arrival input seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed arrival `index` of `phase` draws its transaction inputs from.
pub fn input_seed(run_seed: u64, phase: u64, index: u64) -> u64 {
    mix(mix(run_seed ^ (phase << 56)) ^ index)
}

/// Due times (ns from phase start, ascending) of a Poisson process of
/// `rate_per_s` over `duration_ns`.
pub fn poisson_due_times(run_seed: u64, phase: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut state = mix(run_seed ^ (phase << 56) ^ 0xD0E5);
    let mut due = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.05) as usize + 16);
    let mut now = 0.0f64;
    loop {
        state = mix(state);
        // Uniform in (0, 1]: the exponential gap is finite.
        let uniform = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
        now += -uniform.ln() * mean_gap_ns;
        if now >= duration_ns as f64 {
            return due;
        }
        due.push(now as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_due_times() {
        let a = poisson_due_times(7, 2, 14_000.0, 2_000_000_000);
        let b = poisson_due_times(7, 2, 14_000.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, poisson_due_times(8, 2, 14_000.0, 2_000_000_000));
        assert_ne!(a, poisson_due_times(7, 3, 14_000.0, 2_000_000_000));
    }

    #[test]
    fn schedule_is_ascending_bounded_and_near_its_rate() {
        let due = poisson_due_times(1, 1, 10_000.0, 3_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 3_000_000_000);
        // 30 000 expected; Poisson σ ≈ 173.
        assert!((29_000..31_000).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn input_seeds_depend_on_every_coordinate() {
        assert_eq!(input_seed(1, 2, 3), input_seed(1, 2, 3));
        assert_ne!(input_seed(1, 2, 3), input_seed(2, 2, 3));
        assert_ne!(input_seed(1, 2, 3), input_seed(1, 3, 3));
        assert_ne!(input_seed(1, 2, 3), input_seed(1, 2, 4));
    }
}
