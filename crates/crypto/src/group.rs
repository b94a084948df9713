//! Modular arithmetic over the Mersenne prime `p = 2^61 - 1`.
//!
//! The Schnorr-style signatures in [`crate::signature`] operate in the
//! multiplicative group of this field. A 61-bit group is trivially breakable
//! by a real adversary; it is used here because the repository's experiments
//! measure *protocol-level* security economics (what an attacker can do with
//! or without valid credentials), never bit-strength. The group API mirrors
//! what a production deployment would get from an elliptic-curve library, so
//! swapping in a real group is a local change.
//!
//! # Kernels
//!
//! Signing and verifying are mostly exponentiations, about 90 field
//! multiplications each by square-and-multiply, so two kernels carry them:
//!
//! * **Mersenne folding.** Because `2^61 ≡ 1 (mod p)`, a product
//!   `x = hi·2^61 + lo` of two reduced elements is congruent to `hi + lo`.
//!   [`mul`] and [`pow`] fold the 122-bit product once at bit 61 and
//!   subtract `p` at most once, instead of a `u128 %` (a library division
//!   call). Both still accept any `u64` and reduce it first.
//! * **Fixed-base table.** A `const fn` builds `G^(j·16^i)` for every
//!   nibble position `i < 16` and digit `j < 16` at compile time (2 KB).
//!   [`pow_g`] then computes `G^e` for any 64-bit `e` as one table product
//!   per nibble, 16 multiplications instead of about 90 for square-and-
//!   multiply. Public-key derivation, the signer's commitment and the
//!   verifier's `g^s` all use it; [`pow`] stays for variable bases.
//!
//! Both compute exactly the values the textbook forms do; the tests pin them
//! against a `u128 %` reference.

/// The group modulus: the Mersenne prime `2^61 - 1`.
pub const P: u64 = (1 << 61) - 1;

/// Order of the multiplicative group, `p - 1`.
pub const GROUP_ORDER: u64 = P - 1;

/// A fixed generator of a large subgroup of `(Z/pZ)*`.
///
/// 3 is a primitive root candidate with small encoding; its exact subgroup
/// order is irrelevant for the simulation-grade guarantees documented above.
pub const G: u64 = 3;

/// Reduces `x` modulo [`P`].
#[inline]
pub fn reduce(x: u64) -> u64 {
    x % P
}

/// Modular addition in the field.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    let s = (a as u128 + b as u128) % P as u128;
    s as u64
}

/// Modular subtraction in the field.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    let s = (a as u128 + P as u128 - (b % P) as u128) % P as u128;
    s as u64
}

/// Modular multiplication in the field. Accepts any `u64` operands.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    mul_reduced(reduce(a), reduce(b))
}

/// `a·b mod p` for `a, b < P` by folding the product at bit 61.
#[inline]
const fn mul_reduced(a: u64, b: u64) -> u64 {
    let x = a as u128 * b as u128;
    // x = hi·2^61 + lo ≡ hi + lo. With lo ≤ P and hi ≤ P (x < 2^122) the
    // sum is at most 2P, and equal to 2P only if p divides x, which needs a
    // zero factor and then gives 0; so one subtraction finishes the job.
    let s = (x as u64 & P) + (x >> 61) as u64;
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Modular exponentiation `base^exp mod p` by square-and-multiply.
pub fn pow(base: u64, mut exp: u64) -> u64 {
    let mut base = reduce(base);
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_reduced(acc, base);
        }
        base = mul_reduced(base, base);
        exp >>= 1;
    }
    acc
}

/// `G_TABLE[i][j] = G^(j·16^i) mod p`: one row per nibble of a 64-bit
/// exponent, built at compile time.
static G_TABLE: [[u64; 16]; 16] = g_table();

const fn g_table() -> [[u64; 16]; 16] {
    let mut table = [[1u64; 16]; 16];
    // G^(16^i) for the row being filled.
    let mut step = G;
    let mut i = 0;
    while i < 16 {
        let mut j = 1;
        while j < 16 {
            table[i][j] = mul_reduced(table[i][j - 1], step);
            j += 1;
        }
        step = mul_reduced(table[i][15], step);
        i += 1;
    }
    table
}

/// `G^exp mod p` from the fixed-base table: equal to `pow(G, exp)` for
/// every `exp`, in 16 multiplications.
pub fn pow_g(exp: u64) -> u64 {
    let mut acc: u64 = 1;
    for (i, row) in G_TABLE.iter().enumerate() {
        acc = mul_reduced(acc, row[(exp >> (4 * i)) as usize & 0xf]);
    }
    acc
}

/// Addition modulo the group order (used for Schnorr exponent arithmetic).
#[inline]
pub fn add_exp(a: u64, b: u64) -> u64 {
    ((a as u128 + b as u128) % GROUP_ORDER as u128) as u64
}

/// Multiplication modulo the group order.
#[inline]
pub fn mul_exp(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % GROUP_ORDER as u128) as u64
}

/// Reduces a scalar into the exponent range `[0, GROUP_ORDER)`.
#[inline]
pub fn reduce_exp(x: u64) -> u64 {
    x % GROUP_ORDER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_is_mersenne_61() {
        assert_eq!(P, 2305843009213693951);
    }

    #[test]
    fn add_wraps_correctly() {
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(add(P - 1, 2), 1);
        assert_eq!(add(5, 7), 12);
    }

    #[test]
    fn sub_wraps_correctly() {
        assert_eq!(sub(0, 1), P - 1);
        assert_eq!(sub(10, 3), 7);
    }

    #[test]
    fn mul_matches_small_cases() {
        assert_eq!(mul(3, 4), 12);
        // (p-1)^2 mod p == 1 since p-1 ≡ -1
        assert_eq!(mul(P - 1, P - 1), 1);
    }

    #[test]
    fn pow_basic_identities() {
        assert_eq!(pow(G, 0), 1);
        assert_eq!(pow(G, 1), G);
        assert_eq!(pow(G, 2), 9);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) == 1 mod p for a not divisible by p.
        for a in [2u64, 3, 17, 123_456_789, P - 2] {
            assert_eq!(pow(a, P - 1), 1, "a = {a}");
        }
    }

    #[test]
    fn pow_is_homomorphic_in_exponent() {
        let (x, y) = (1_234_567u64, 7_654_321u64);
        assert_eq!(mul(pow(G, x), pow(G, y)), pow(G, add_exp(x, y)));
    }

    #[test]
    fn exp_arithmetic_wraps_at_group_order() {
        assert_eq!(add_exp(GROUP_ORDER - 1, 1), 0);
        assert_eq!(mul_exp(GROUP_ORDER - 1, 2), GROUP_ORDER - 2);
        assert_eq!(reduce_exp(GROUP_ORDER + 5), 5);
    }

    /// `a·b mod p` by `u128 %`, the textbook form the folding replaces.
    fn mul_ref(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % P as u128) as u64
    }

    /// Square-and-multiply over [`mul_ref`].
    fn pow_ref(base: u64, mut exp: u64) -> u64 {
        let mut base = base % P;
        let mut acc = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_ref(acc, base);
            }
            base = mul_ref(base, base);
            exp >>= 1;
        }
        acc
    }

    /// The fold's edge cases, unreduced inputs up to `u64::MAX`, and a
    /// fixed pseudo-random spread of raw and reduced values.
    fn operands() -> Vec<u64> {
        let mut v = vec![
            0,
            1,
            2,
            G,
            (1 << 32) - 1,
            1 << 32,
            1 << 60,
            P - 2,
            P - 1,
            P,
            P + 1,
            2 * P,
            2 * P + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..48 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v.extend([x, x % P]);
        }
        v
    }

    /// Exponents 0, 1 and `u64::MAX`, the nibble and group-order edges, and
    /// the same spread as [`operands`].
    fn exponents() -> Vec<u64> {
        let mut v = vec![
            0,
            1,
            2,
            15,
            16,
            17,
            255,
            256,
            GROUP_ORDER - 1,
            GROUP_ORDER,
            P,
            P + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        v.extend(operands());
        v
    }

    #[test]
    fn mul_matches_u128_reference() {
        let ops = operands();
        for &a in &ops {
            for &b in &ops {
                assert_eq!(mul(a, b), mul_ref(a, b), "mul({a:#x}, {b:#x})");
            }
        }
    }

    #[test]
    fn pow_matches_u128_reference() {
        for base in operands() {
            for exp in exponents() {
                assert_eq!(
                    pow(base, exp),
                    pow_ref(base, exp),
                    "pow({base:#x}, {exp:#x})"
                );
            }
        }
    }

    #[test]
    fn every_fixed_base_entry_is_a_power_of_g() {
        for (i, row) in G_TABLE.iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                let exp = (j as u64) << (4 * i);
                assert_eq!(entry, pow(G, exp), "G_TABLE[{i}][{j}]");
            }
        }
    }

    #[test]
    fn pow_g_matches_pow() {
        for exp in exponents() {
            assert_eq!(pow_g(exp), pow(G, exp), "pow_g({exp:#x})");
        }
    }
}
